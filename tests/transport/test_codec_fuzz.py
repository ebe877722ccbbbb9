"""Codec-tree fuzz: what a peer can put in a frame (ROADMAP item 4).

``tests/transport/test_codec.py`` has one hand-written case per way a
tagged tree can be wrong; this suite lets hypothesis compose them.  Two
properties: whatever tree arrives, ``codec.decode`` either lifts it or
raises :class:`CodecError` — no other exception, and no allocation out
of proportion to the bytes received — and every payload shape the
protocol sends comes back equal, float bits included.
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import NetworkError, StorageError
from repro.faults.membership import RPC_FAILED, RPC_SHED
from repro.geo.polygon import Polygon
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.obs.recorder import QueryContext
from repro.query.model import AggregationQuery
from repro.transport.codec import CodecError, RemoteRpcError, decode, encode

from tests.strategies import (
    boxes,
    calendar_time_keys,
    cell_keys,
    queries,
    resolutions,
    wire_values,
)

# ---------------------------------------------------------------------------
# hostile trees

#: Every tag ``_lift`` knows, with the fields it reads.
FIELDS = {
    "map": ("i",), "tup": ("i",), "set": ("i",), "fset": ("i",), "bytes": ("b",),
    "cellkey": ("s",), "timekey": ("c",), "timerange": ("s", "e"),
    "blockid": ("g", "d"), "bbox": ("b",), "poly": ("v",), "tres": ("v",),
    "res": ("s", "t"), "asum": ("v",), "svec": ("a",),
    "query": ("bbox", "time", "res", "attrs", "poly", "kind", "id"),
    "qctx": ("q", "a", "l", "r"), "rpc": ("n",), "exc": ("cls", "msg"),
}

#: Values that are the right JSON type for some slot and wrong for most:
#: non-finite floats where an int is required, a month 13, an empty
#: geohash, years the calendar does not have, a huge integer.
SCALARS = st.sampled_from(
    [
        None, True, 0, 1, -1, 13, 99, 10_000, 10**30, 0.5, -0.0,
        float("inf"), float("-inf"), float("nan"),
        "", "9q8", "9q8@2013-02-01", "@2013-13-01", "9q8@10000", "2013-02-30", "ä",
    ]
)


def tagged(children):
    """A node with a known tag and its own fields (each holding
    anything), one field short, one field over, or an unknown tag."""
    known = st.sampled_from(sorted(FIELDS)).flatmap(
        lambda tag: st.fixed_dictionaries(
            {"__t": st.just(tag)},
            optional={name: children for name in FIELDS[tag] + ("x",)},
        )
    )
    unknown = st.fixed_dictionaries({"__t": st.text(max_size=4) | SCALARS, "i": children})
    return known | unknown


trees = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5) | tagged(children),
    max_leaves=25,
)

#: Whole trees wrong in one way each, which the class behind the tag
#: refuses.  ``CellKey.parse`` checks the geohash — 1 to 12 characters of
#: the geohash alphabet — so an empty, overlong or misspelt one is refused
#: at the wire and never reaches a handler.
NAMED = {
    "asum with 4 values": {"__t": "asum", "v": [1, 2.0, 4.0, 2.0]},
    "bbox with 5": {"__t": "bbox", "b": [0, 1, 0, 1, 2]},
    "bbox of strings": {"__t": "bbox", "b": ["a", "b", "c", "d"]},
    "timekey month 13": {"__t": "timekey", "c": [2013, 13]},
    "timekey year 10000": {"__t": "timekey", "c": [10_000]},
    "timekey year 10**30": {"__t": "timekey", "c": [10**30, 1, 1]},
    "timekey of floats": {"__t": "timekey", "c": [2013.0, float("nan")]},
    "timekey of five": {"__t": "timekey", "c": [2013, 1, 1, 1, 1]},
    "cellkey with no separator": {"__t": "cellkey", "s": "9q8-2013-02-01"},
    "cellkey that is a number": {"__t": "cellkey", "s": 7},
    "cellkey past the calendar": {"__t": "cellkey", "s": "9q8@10000-01"},
    "cellkey with an empty geohash": {"__t": "cellkey", "s": "@2013-02-01"},
    "cellkey with 13 characters": {"__t": "cellkey", "s": "9q8yyk8ytpxr0@2013-02-01"},
    "cellkey with 40 characters": {"__t": "cellkey", "s": "9" * 40 + "@2013-02-01"},
    "cellkey with an 'a'": {"__t": "cellkey", "s": "9qa@2013-02-01"},
    "cellkey in upper case": {"__t": "cellkey", "s": "9Q8@2013-02-01"},
    "cellkey with a space": {"__t": "cellkey", "s": " 9q8@2013-02-01"},
    "cellkey not in ascii": {"__t": "cellkey", "s": "9qä@2013-02-01"},
    "timerange backwards": {"__t": "timerange", "s": 2, "e": 1},
    "timerange of nan": {"__t": "timerange", "s": float("nan"), "e": 1},
    "tres of nan": {"__t": "tres", "v": float("nan")},
    "res with precision inf": {"__t": "res", "s": float("inf"), "t": 0},
    "poly of one point": {"__t": "poly", "v": [[0, 0]]},
    "map with an unhashable key": {"__t": "map", "i": [[[1], 2]]},
    "set of lists": {"__t": "set", "i": [[1]]},
    "query missing its box": {"__t": "query", "time": None},
    "qctx missing a field": {"__t": "qctx", "q": 1, "a": 0, "l": None},
    "exc with no message": {"__t": "exc", "cls": "NetworkError"},
}


def wire(tree) -> bytes:
    return json.dumps(tree, allow_nan=True).encode("utf-8")


def decodes_or_refuses(data: bytes) -> None:
    try:
        decode(data)
    except CodecError:
        pass


@pytest.mark.parametrize("name", NAMED)
def test_each_named_wrong_tree_is_a_codec_error(name):
    with pytest.raises(CodecError):
        decode(wire(NAMED[name]))


@given(trees)
@settings(max_examples=600, deadline=None)
def test_any_tree_lifts_or_raises_codec_error_and_nothing_else(tree):
    decodes_or_refuses(wire(tree))


@given(st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
@settings(max_examples=200, deadline=None)
def test_any_bytes_lift_or_raise_codec_error(data):
    decodes_or_refuses(data)


@pytest.mark.parametrize(
    "data",
    [
        b"[" * 50_000 + b"]" * 50_000,
        wire({"__t": "tup", "i": [[]]})[:-3],
        b'{"__t":"tup","i":' * 20_000 + b"[]" + b"}" * 20_000,
        b'{"__t":"map","i":[[1,' * 20_000 + b"1" + b"]]}" * 20_000,
    ],
    ids=["lists", "truncated", "tuples", "maps"],
)
def test_nesting_past_the_recursion_limit_is_a_codec_error(data):
    with pytest.raises(CodecError):
        decode(data)


#: Peak traced allocation allowed per input byte: ``json.loads`` builds
#: the tree and ``_lift`` its twin, and the densest input (``[[],[],…``,
#: three bytes an empty list) costs about 45 bytes a byte for the pair.
ALLOCATION_FACTOR = 64
ALLOCATION_SLACK = 64 * 1024


@pytest.mark.parametrize(
    "data",
    [
        b"[" + b"[]," * 30_000 + b"[]]",
        b"[" + b'{"__t":"set","i":[]},' * 5_000 + b"0]",
        b"[" + b'{"__t":"timekey","c":[2013,2,2]},' * 5_000 + b"0]",
        b'{"__t":"bytes","b":"' + b"QUFB" * 30_000 + b'"}',
        b"[" + b"1e308," * 30_000 + b"0]",
        wire({"__t": "timekey", "c": [10**30]}),
        wire({"__t": "timerange", "s": 0, "e": 1e308}),
    ],
    ids=["lists", "sets", "timekeys", "bytes", "floats", "huge-year", "huge-range"],
)
def test_decode_allocates_in_proportion_to_its_input(data):
    decodes_or_refuses(data)  # warm every lazy import and cache first
    tracemalloc.start()
    try:
        decodes_or_refuses(data)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ALLOCATION_FACTOR * len(data) + ALLOCATION_SLACK


# ---------------------------------------------------------------------------
# faithful round trips

finite_or_inf = st.floats(allow_nan=False) | st.sampled_from(
    (0.0, -0.0, float("inf"), float("-inf"), 5e-324, 0.1)
)
attribute_summaries = st.builds(
    AttributeSummary,
    st.integers(0, 2**40), finite_or_inf, finite_or_inf, finite_or_inf, finite_or_inf,
) | st.just(AttributeSummary.empty())
summary_vectors = st.dictionaries(
    st.sampled_from(("temperature", "humidity", "t", "")), attribute_summaries, max_size=3
).map(SummaryVector._trusted)
block_sets = st.frozensets(
    st.builds(BlockId, st.sampled_from(("9q", "9qb", "dr")), st.sampled_from(("2013-02-01", "2013-02-02"))),
    max_size=3,
)
contexts = st.builds(
    QueryContext,
    query_id=st.integers(0, 2**31),
    attempt=st.integers(0, 5),
    leg=st.none() | st.sampled_from(("node-0", "node-1")),
    redirect_depth=st.integers(0, 3),
)
polygons = st.just(Polygon.of((28.0, -115.0), (45.0, -115.0), (28.0, -95.0)))
polygon_queries = st.builds(
    AggregationQuery.for_polygon,
    polygons,
    st.just(TimeRange(1359763200.0, 1359849600.0)),
    resolutions(2, 4),
    st.none() | st.just(("temperature",)),
)
leaves = (
    wire_values()
    | cell_keys()
    | calendar_time_keys()
    | boxes()
    | resolutions()
    | st.sampled_from(list(TemporalResolution))
    | st.builds(TimeRange, st.floats(-1e12, 0.0), st.floats(1.0, 1e12))
    | attribute_summaries
    | summary_vectors
    | block_sets
    | contexts
    | queries()
    | polygon_queries
    | st.binary(max_size=16)
    | st.sampled_from((RPC_FAILED, RPC_SHED))
)
#: The shapes handlers send: a fetch request, a cells reply, a plan
#: reply, a redirect, and the envelope's (value, wire_size) tuple.
payloads = st.one_of(
    st.fixed_dictionaries(
        {
            "query": queries() | polygon_queries,
            "cells": st.lists(cell_keys(), max_size=6),
            "ring": st.lists(cell_keys(), max_size=6),
            "ctx": st.none() | contexts,
        }
    ),
    st.fixed_dictionaries(
        {
            "cells": st.dictionaries(cell_keys(), summary_vectors, max_size=6),
            "provenance": st.dictionaries(
                st.sampled_from(("cells_from_cache", "cells_from_disk")), st.integers(0, 999)
            ),
            "completeness": st.floats(0.0, 1.0),
        }
    ),
    st.fixed_dictionaries(
        {
            "found": st.dictionaries(cell_keys(), summary_vectors, max_size=4),
            "missing": st.dictionaries(cell_keys(), block_sets, max_size=4),
            "stats": st.dictionaries(st.sampled_from(("cached", "rollup")), st.integers(0, 99)),
        }
    ),
    st.fixed_dictionaries({"not_owner": st.dictionaries(st.text(max_size=4), st.integers())}),
    st.tuples(leaves, st.integers(0, 2**32)),
    st.lists(leaves, max_size=5),
    st.sets(cell_keys(), max_size=4),
)


@given(payloads | leaves)
@settings(max_examples=400, deadline=None)
def test_every_protocol_payload_round_trips_to_the_bit(value):
    data = encode(value)
    lifted = decode(data)
    assert lifted == value
    assert type(lifted) is type(value)
    # ``==`` cannot tell -0.0 from 0.0; the re-encoded bytes can.
    assert encode(lifted) == data
    if isinstance(value, AggregationQuery):
        assert (lifted.query_id, lifted.kind) == (value.query_id, value.kind)


@pytest.mark.parametrize(
    "error, lifted_type",
    [
        (NetworkError("link down"), NetworkError),
        (StorageError("no such block"), StorageError),
        (KeyError("boom"), RemoteRpcError),
    ],
)
def test_exceptions_travel_by_name(error, lifted_type):
    lifted = decode(encode({"error": error, "reply": RPC_FAILED}))
    assert type(lifted["error"]) is lifted_type and str(error) in str(lifted["error"])
    assert lifted["reply"] is RPC_FAILED


def test_a_key_the_class_now_refuses_never_reaches_a_handler():
    """``TimeKey`` turns a year outside the calendar — however large —
    into a ``TemporalError``, which the codec reports as its own."""
    for components in ([0], [10_000], [10**30], [2013, 2, 30]):
        with pytest.raises(CodecError, match="TemporalError"):
            decode(wire({"__t": "timekey", "c": components}))
    assert decode(wire({"__t": "timekey", "c": [9999, 12, 31, 23]})) == TimeKey.of(
        9999, 12, 31, 23
    )
    assert decode(encode(CellKey("9q8", TimeKey.of(1, 1)))) == CellKey("9q8", TimeKey.of(1, 1))


def test_cellkey_parse_takes_every_precision_of_the_alphabet_and_nothing_else():
    """The geohash check lives in ``parse`` (the wire), not in the
    constructor the read path calls: 1 and 12 characters lift, 0 and 13
    do not, and a key built in-process is not checked at all."""
    day = TimeKey.of(2013, 2, 1)
    for geohash in ("0", "z", "0123456789bc", "defghjkmnpqr", "stuvwxyz"):
        assert decode(wire({"__t": "cellkey", "s": f"{geohash}@{day}"})) == CellKey(geohash, day)
    for geohash in ("", "0123456789bcd", "i", "l", "o", "9q8\n", "9q-8"):
        with pytest.raises(CodecError, match="CacheError"):
            decode(wire({"__t": "cellkey", "s": f"{geohash}@{day}"}))
    assert CellKey("", day).geohash == ""
