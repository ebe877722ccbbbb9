"""Wire codec: every payload type must round-trip faithfully."""

import json
import math

import numpy as np
import pytest

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import NetworkError, StorageError
from repro.faults.membership import RPC_FAILED, RPC_SHED
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.obs.recorder import QueryContext
from repro.query.model import AggregationQuery
from repro.transport.codec import (
    CodecError,
    RemoteRpcError,
    decode,
    encode,
)


def roundtrip(value):
    return decode(encode(value))


class TestScalars:
    def test_primitives(self):
        for value in (None, True, False, 0, -7, 3.25, "text", [1, 2], ["a"]):
            assert roundtrip(value) == value

    def test_float_bit_exact(self):
        for value in (0.1, 1e300, -1e-300, math.pi, float("inf"), float("-inf")):
            result = roundtrip(value)
            assert result == value
            assert isinstance(result, float)

    def test_numpy_scalars_lowered(self):
        assert roundtrip(np.int64(12)) == 12
        assert roundtrip(np.float64(2.5)) == 2.5

    def test_bytes(self):
        assert roundtrip(b"\x00\xffhello") == b"\x00\xffhello"

    def test_tuple_survives(self):
        value = (1, (2.5, "x"), None)
        result = roundtrip(value)
        assert result == value
        assert isinstance(result, tuple)
        assert isinstance(result[1], tuple)

    def test_sets(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}
        result = roundtrip(frozenset(("a", "b")))
        assert result == frozenset(("a", "b"))
        assert isinstance(result, frozenset)

    def test_unencodable_raises(self):
        with pytest.raises(CodecError):
            encode(object())

    def test_self_referencing_payload_raises(self):
        payload = {"cells": []}
        payload["cells"].append(payload)
        with pytest.raises(CodecError, match="nested"):
            encode(payload)


class TestDicts:
    def test_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(value)) == ["z", "a", "m"]

    def test_cellkey_keys(self):
        key = CellKey.parse("9q8@2013-02-01")
        value = {key: 7}
        result = roundtrip(value)
        assert result == value
        assert isinstance(next(iter(result)), CellKey)

    def test_nested(self):
        value = {"outer": {"inner": [1, (2, 3)]}}
        assert roundtrip(value) == value


def _vector(*order, total=1.5):
    fields = {
        "temperature": AttributeSummary(2, total, 4.5, -0.0, 1.5),
        "humidity": AttributeSummary.empty(),
    }
    return SummaryVector._trusted({name: fields[name] for name in order})


class TestCellsMaps:
    """A ``CellKey -> SummaryVector`` map crosses as one ``cells`` node."""

    KEYS = [CellKey.parse(text) for text in ("9q9@2013-02-02", "9q8@2013-02-01", "9q@2013-02")]

    def wire(self, value):
        return json.loads(encode(value))

    def test_one_node_of_columns_in_iteration_order(self):
        value = {key: _vector("temperature", "humidity") for key in self.KEYS}
        node = self.wire(value)
        assert node["__t"] == "cells"
        assert node["k"] == [str(key) for key in self.KEYS]  # not sorted
        assert node["a"] == ["temperature", "humidity"]
        assert node["n"] == [2, 0] * 3
        result = roundtrip(value)
        assert list(result) == self.KEYS
        assert result == value
        assert [list(v._summaries) for v in result.values()] == [["temperature", "humidity"]] * 3

    def test_floats_bit_exact_through_the_buffer(self):
        value = {self.KEYS[0]: _vector("temperature", "humidity", total=0.1 + 0.2)}
        data = encode(value)
        (vector,) = decode(data).values()
        temperature, humidity = vector["temperature"], vector["humidity"]
        assert temperature.total == 0.1 + 0.2
        assert math.copysign(1.0, temperature.minimum) == -1.0  # -0.0 kept
        assert humidity == AttributeSummary.empty()  # ±inf kept
        assert encode(decode(data)) == data

    @pytest.mark.parametrize(
        "value",
        [
            {},
            {KEYS[0]: _vector("temperature"), KEYS[1]: _vector("humidity")},
            {KEYS[0]: _vector("temperature", "humidity"), KEYS[1]: _vector("humidity", "temperature")},
            {KEYS[0]: _vector("temperature", total=3)},
            {KEYS[0]: SummaryVector._trusted({})},
            {KEYS[0]: _vector("temperature"), "other": _vector("temperature")},
            {KEYS[0]: 7},
        ],
        ids=["empty", "two-name-sets", "two-orders", "int-field", "no-names", "str-key", "not-a-vector"],
    )
    def test_any_other_dict_keeps_the_item_list(self, value):
        assert self.wire(value)["__t"] == "map"
        result = roundtrip(value)
        assert result == value
        assert [type(v) for v in result.values()] == [type(v) for v in value.values()]
        assert encode(result) == encode(value)


class TestDomainTypes:
    def test_geometry(self):
        box = BoundingBox(30.0, 40.0, -110.0, -100.0)
        assert roundtrip(box) == box

    def test_temporal(self):
        key = TimeKey.of(2013, 2, 3)
        assert roundtrip(key) == key
        rng = TimeRange(100.0, 200.5)
        assert roundtrip(rng) == rng
        assert roundtrip(TemporalResolution.DAY) is TemporalResolution.DAY
        res = Resolution(4, TemporalResolution.HOUR)
        assert roundtrip(res) == res

    def test_block_and_cell_ids(self):
        block = BlockId(geohash="9q8", day="2013-02-01")
        assert roundtrip(block) == block
        key = CellKey.parse("9q@2013-02")
        assert roundtrip(key) == key

    def test_summary_vector_bit_exact(self):
        vec = SummaryVector._trusted(
            {
                "temperature": AttributeSummary(3, 10.5, 40.25, -1.5, 9.0),
                "humidity": AttributeSummary.empty(),
            }
        )
        result = roundtrip(vec)
        assert result == vec  # SummaryVector.__eq__ is exact float equality
        assert list(result._summaries) == ["temperature", "humidity"]

    def test_aggregation_query_preserves_id(self):
        query = AggregationQuery(
            bbox=BoundingBox(30.0, 40.0, -110.0, -100.0),
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(3, TemporalResolution.DAY),
            attributes=("temperature",),
        )
        result = roundtrip(query)
        assert result.query_id == query.query_id
        assert result.bbox == query.bbox
        assert result.resolution == query.resolution
        assert result.attributes == query.attributes
        assert result.footprint() == query.footprint()

    def test_query_context(self):
        ctx = QueryContext(query_id=9, attempt=1, leg="node-2", redirect_depth=1)
        assert roundtrip(ctx) == ctx


class TestRpcSemantics:
    def test_sentinel_identity(self):
        assert roundtrip(RPC_FAILED) is RPC_FAILED
        assert roundtrip(RPC_SHED) is RPC_SHED

    def test_known_exception_class(self):
        result = roundtrip(StorageError("no such block"))
        assert isinstance(result, StorageError)
        assert "no such block" in str(result)

    def test_unknown_exception_class(self):
        result = roundtrip(ValueError("boom"))
        assert isinstance(result, RemoteRpcError)
        assert "ValueError" in str(result)
        assert "boom" in str(result)

    def test_nested_rpc_payload(self):
        # The exact shape a node reply travels in.
        key = CellKey.parse("9q8@2013-02-01")
        payload = {
            "cells": {key: SummaryVector._trusted({"t": AttributeSummary.empty()})},
            "provenance": {"cache": 1, "disk": 2},
            "completeness": 1.0,
        }
        assert roundtrip(payload) == payload


def test_network_error_roundtrip():
    result = roundtrip(NetworkError("link down"))
    assert isinstance(result, NetworkError)


#: Bytes a peer could send that are not an encoded payload, by what the
#: lifting would otherwise die of.
MALFORMED = {
    "not utf-8 (UnicodeDecodeError)": b"\xff\xfe\x00ab",
    "not json (JSONDecodeError)": b'{"__t": ',
    "plain dict, no tag": b'{"t": "cellkey"}',
    "unknown tag": b'{"__t": "nope"}',
    "tag missing its field (KeyError)": b'{"__t": "cellkey"}',
    "field of the wrong type (TypeError)": b'{"__t": "map", "i": 7}',
    "wrong arity (ValueError)": b'{"__t": "bbox", "b": [1, 2, 3]}',
    "short list (IndexError)": b'{"__t": "svec", "a": [["t", [1, 2]]]}',
    "bad base64 padding": b'{"__t": "bytes", "b": "abc"}',
    "value its class refuses": b'{"__t": "tres", "v": 99}',
    "nesting past the recursion limit": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_bytes_decode_to_codec_error(data):
    with pytest.raises(CodecError):
        decode(data)
