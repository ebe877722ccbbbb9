"""The four key classes are tuples now; each must behave as the frozen
dataclass it replaced (``tests/reference.py``'s twins).

``TimeKey``, ``CellKey``, ``BlockId`` and ``Resolution`` are named
tuples so that hashing, equality and ordering run in C.  A tuple of the
fields hashes exactly as the dataclass's generated ``__hash__`` did, so
set and dict iteration order — and with it every simulated output — is
unchanged under any ``PYTHONHASHSEED`` (CI runs this file under two).
What a tuple adds is equality with *any* equal tuple; the codec tags by
type, so a plain tuple of the same content still crosses as ``tup``.
"""

import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.errors import ResolutionError, TemporalError
from repro.geo import geohash as gh
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.transport.codec import decode, encode

from tests.reference import BlockIdTwin, CellKeyTwin, ResolutionTwin, TimeKeyTwin
from tests.strategies import boundary_time_keys, calendar_time_keys, geohashes

#: Narrow choices as often as wide ones, so drawn keys collide and nest.
labels = geohashes(1, 3, "9qd") | geohashes(1, gh.MAX_PRECISION)
time_key_pairs = (boundary_time_keys() | calendar_time_keys()).map(
    lambda key: (key, TimeKeyTwin(key.components))
)
cell_key_pairs = st.builds(
    lambda geohash, pair: (CellKey(geohash, pair[0]), CellKeyTwin(geohash, pair[1])),
    labels,
    time_key_pairs,
)
block_id_pairs = st.builds(
    lambda geohash, pair: (BlockId(geohash, str(pair[0])), BlockIdTwin(geohash, str(pair[1]))),
    labels,
    time_key_pairs,
)
resolution_pairs = st.builds(
    lambda spatial, temporal: (Resolution(spatial, temporal), ResolutionTwin(spatial, temporal)),
    st.integers(1, gh.MAX_PRECISION),
    st.sampled_from(list(TemporalResolution)),
)
#: Lists of (key, twin) pairs of one class: the dataclasses ordered only
#: within a class.
pair_lists = st.one_of(
    [
        st.lists(pairs, min_size=1, max_size=8)
        for pairs in (time_key_pairs, cell_key_pairs, block_id_pairs, resolution_pairs)
    ]
)

TAGS = {TimeKey: "timekey", CellKey: "cellkey", BlockId: "blockid", Resolution: "res"}


@given(pair_lists)
@settings(max_examples=400, deadline=None)
def test_hash_equality_and_order_agree_with_the_dataclass(pairs):
    for (a, twin_a), (b, twin_b) in itertools.product(pairs, repeat=2):
        assert hash(a) == hash(twin_a)
        assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b)
        assert (a < b, a <= b, a > b, a >= b) == (
            twin_a < twin_b, twin_a <= twin_b, twin_a > twin_b, twin_a >= twin_b,
        )
    keys = [key for key, _ in pairs]
    twins = [twin for _, twin in pairs]
    indices = range(len(pairs))
    assert sorted(indices, key=keys.__getitem__) == sorted(indices, key=twins.__getitem__)
    # Same hashes, same probing: a set or dict built in the same order
    # iterates in the same order (``str`` is one-to-one on each class).
    assert [str(key) for key in set(keys)] == [str(twin) for twin in set(twins)]
    assert [str(key) for key in dict.fromkeys(reversed(keys))] == [
        str(twin) for twin in dict.fromkeys(reversed(twins))
    ]


@given(pair_lists)
@settings(max_examples=200, deadline=None)
def test_text_pickle_and_codec_agree_with_the_dataclass(pairs):
    for key, twin in pairs:
        assert str(key) == str(twin)
        assert repr(key) == repr(twin).replace("Twin(", "(")
        if hasattr(twin, "parse"):
            assert type(key).parse(str(key)) == key
            assert type(twin).parse(str(twin)) == twin
        for copy in (pickle.loads(pickle.dumps(key)), decode(encode(key))):
            assert copy == key and type(copy) is type(key)
            assert hash(copy) == hash(twin)


@given(pair_lists)
@settings(max_examples=100, deadline=None)
def test_a_plain_tuple_equal_to_a_key_still_crosses_as_a_tuple(pairs):
    """The codec tags by type, not by content: ``tuple(key) == key``
    now, but only the key is lowered under its class's tag."""
    for key, _ in pairs:
        plain = tuple(key)
        assert plain == key
        assert json.loads(encode(key))["__t"] == TAGS[type(key)]
        assert json.loads(encode(plain))["__t"] == "tup"
        lifted = decode(encode({plain: 1, "key": key}))
        assert [type(k) for k in lifted] == [tuple, str]
        assert type(lifted["key"]) is type(key)


def outcome(cls, *fields):
    """``str`` of what ``cls(*fields)`` builds, or the class it raises."""
    try:
        return str(cls(*fields))
    except (TemporalError, ResolutionError) as exc:
        return type(exc)


@given(
    st.lists(
        st.integers(-1, 25) | st.sampled_from((0, 1969, 1970, 9999, 10_000, 10**30)),
        max_size=5,
    )
)
@settings(max_examples=400, deadline=None)
def test_time_key_refuses_exactly_what_the_dataclass_refused(components):
    assert outcome(TimeKey, tuple(components)) == outcome(TimeKeyTwin, tuple(components))


@given(st.integers(-2, gh.MAX_PRECISION + 3), st.sampled_from(list(TemporalResolution)))
def test_resolution_refuses_exactly_what_the_dataclass_refused(spatial, temporal):
    assert outcome(Resolution, spatial, temporal) == outcome(ResolutionTwin, spatial, temporal)


def test_constructors_keep_their_call_shape():
    day = TimeKey((2013, 2, 2))
    assert TimeKey(components=(2013, 2, 2)) == day == TimeKey.of(2013, 2, 2)
    assert CellKey(geohash="9q8", time_key=day) == CellKey("9q8", day)
    assert BlockId(geohash="9q", day="2013-02-02") == BlockId("9q", "2013-02-02")
    assert Resolution(spatial=3, temporal=TemporalResolution.DAY) == Resolution(
        3, TemporalResolution.DAY
    )
    for build in (
        lambda: TimeKey(),
        lambda: CellKey("9q8"),
        lambda: BlockId("9q", "2013-02-02", "x"),
        lambda: Resolution(spatial=3),
    ):
        with pytest.raises(TypeError):
            build()
    for key in (day, CellKey("9q8", day), BlockId("9q", "2013-02-02")):
        assert not hasattr(key, "__dict__")  # __slots__ = (): no per-key dict
        with pytest.raises(AttributeError):
            setattr(key, type(key)._fields[0], "x")  # immutable, as frozen was
