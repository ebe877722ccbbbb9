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
* **Dicts are order-preserving and key-faithful**: every dict is encoded
  as an item *list*, so ``CellKey`` keys survive and iteration order —
  which fixes float merge order downstream — is preserved.
* **RPC sentinels keep identity**: ``RPC_FAILED`` decodes to the interned
  sentinel, so ``reply is RPC_FAILED`` works across the wire.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro import errors as _errors
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import ReproError
from repro.faults.membership import _RpcSentinel
from repro.geo.bbox import BoundingBox
from repro.geo.polygon import Polygon
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
        # ALL dicts become item lists: keys may be CellKeys, and order
        # must survive (it fixes downstream float merge order).
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
    if isinstance(value, Polygon):
        return {"__t": "poly", "v": [[lat, lon] for lat, lon in value.vertices]}
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
            "poly": _lower(value.polygon),
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


def _raise_tree(node: dict) -> Any:
    raise CodecError(f"unknown wire tag {node.get('__t')!r}")


def _lift(node: Any) -> Any:
    """Inverse of :func:`_lower`."""
    if isinstance(node, list):
        return [_lift(v) for v in node]
    if not isinstance(node, dict):
        return node
    tag = node.get("__t")
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
    if tag == "poly":
        return Polygon(tuple((lat, lon) for lat, lon in node["v"]))
    if tag == "tres":
        return TemporalResolution(node["v"])
    if tag == "res":
        return Resolution(node["s"], TemporalResolution(node["t"]))
    if tag == "asum":
        count, total, total_sq, minimum, maximum = node["v"]
        return AttributeSummary(count, total, total_sq, minimum, maximum)
    if tag == "svec":
        return SummaryVector._trusted(
            {
                name: AttributeSummary(v[0], v[1], v[2], v[3], v[4])
                for name, v in node["a"]
            }
        )
    if tag == "query":
        return AggregationQuery(
            bbox=_lift(node["bbox"]),
            time_range=_lift(node["time"]),
            resolution=_lift(node["res"]),
            attributes=None if node["attrs"] is None else tuple(node["attrs"]),
            polygon=_lift(node["poly"]),
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
    """Serialize one payload value to bytes."""
    # separators: canonical compact form; allow_nan lets ±inf through
    # (AttributeSummary.empty() carries them by design).
    return json.dumps(
        _lower(value), separators=(",", ":"), allow_nan=True
    ).encode("utf-8")


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
