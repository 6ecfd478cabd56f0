"""Tests for measurements, qualified names and the XDR codec."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring import (
    AttributeType,
    CodecError,
    DataDictionary,
    Measurement,
    PacketEncoder,
    ProbeAttribute,
    decode_measurement,
    decode_value,
    encode_measurement,
    encode_value,
    naive_json_size,
    peek_header,
    validate_qualified_name,
)


# ---------------------------------------------------------------------------
# Qualified names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "uk.ucl.condor.schedd.queuesize",
    "com.sap.webdispatcher.kpis.sessions",
    "a.b",
    "x-1.y_2.z3",
])
def test_valid_qualified_names(name):
    assert validate_qualified_name(name) == name


@pytest.mark.parametrize("name", [
    "", "single", ".leading", "trailing.", "two..dots", "sp ace.x", None, 42,
])
def test_invalid_qualified_names(name):
    with pytest.raises((ValueError, TypeError)):
        validate_qualified_name(name)


@pytest.mark.parametrize("name", ["single", "two..dots", "", None, 42,
                                  b"a.b"])
def test_measurement_rejects_bad_names_after_valid_ones(name):
    """Names that passed once skip the regex; every other name, including
    non-str input, still raises the same ValueError."""
    make_measurement(qualified_name="uk.ucl.a.b")
    make_measurement(qualified_name="uk.ucl.a.b")
    with pytest.raises(ValueError, match="malformed qualified name"):
        make_measurement(qualified_name=name)


# ---------------------------------------------------------------------------
# AttributeType
# ---------------------------------------------------------------------------

def test_type_inference():
    assert AttributeType.for_python_value(True) is AttributeType.BOOLEAN
    assert AttributeType.for_python_value(5) is AttributeType.INTEGER
    assert AttributeType.for_python_value(2**40) is AttributeType.LONG
    assert AttributeType.for_python_value(1.5) is AttributeType.DOUBLE
    assert AttributeType.for_python_value("x") is AttributeType.STRING
    with pytest.raises(TypeError):
        AttributeType.for_python_value([1, 2])


def test_type_accepts():
    assert AttributeType.INTEGER.accepts(5)
    assert not AttributeType.INTEGER.accepts(True)  # bool is not an int here
    assert AttributeType.DOUBLE.accepts(5)          # ints widen to double
    assert AttributeType.BOOLEAN.accepts(False)
    assert not AttributeType.STRING.accepts(5)


# ---------------------------------------------------------------------------
# DataDictionary
# ---------------------------------------------------------------------------

def test_dictionary_rejects_duplicates():
    attr = ProbeAttribute("q", AttributeType.INTEGER)
    with pytest.raises(ValueError):
        DataDictionary((attr, attr))


def test_dictionary_validate_values():
    d = DataDictionary((
        ProbeAttribute("count", AttributeType.INTEGER, "jobs"),
        ProbeAttribute("load", AttributeType.DOUBLE, "ratio"),
    ))
    d.validate_values((5, 0.7))
    with pytest.raises(ValueError):
        d.validate_values((5,))
    with pytest.raises(TypeError):
        d.validate_values(("five", 0.7))
    assert d.index_of("load") == 1
    with pytest.raises(KeyError):
        d.index_of("missing")


def test_probe_attribute_validation():
    with pytest.raises(ValueError):
        ProbeAttribute("", AttributeType.INTEGER)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def make_measurement(**kw):
    kw.setdefault("qualified_name", "uk.ucl.condor.schedd.queuesize")
    kw.setdefault("service_id", "svc-1")
    kw.setdefault("probe_id", "probe-1")
    kw.setdefault("timestamp", 123.5)
    kw.setdefault("values", (7,))
    return Measurement(**kw)


def test_measurement_validation():
    with pytest.raises(ValueError):
        make_measurement(qualified_name="notdotted")
    with pytest.raises(ValueError):
        make_measurement(service_id="")
    with pytest.raises(ValueError):
        make_measurement(probe_id="")


def test_measurement_value_shorthand():
    assert make_measurement(values=(9, 2)).value == 9
    with pytest.raises(ValueError):
        _ = make_measurement(values=()).value


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [0, 1, -1, 2**31 - 1, -(2**31), 2**62, True,
                                   False, 0.0, -3.25, "hello", "", "ünïcødé",
                                   "x" * 1000])
def test_value_round_trip(value):
    buf = encode_value(value)
    decoded, offset = decode_value(buf)
    assert decoded == value
    assert type(decoded) is type(value)
    assert offset == len(buf)


def test_string_padding_is_4_byte_aligned():
    for s in ("", "a", "ab", "abc", "abcd"):
        buf = encode_value(s)
        # tag byte + 4-byte length + padded body
        assert (len(buf) - 1) % 4 == 0


def test_float_single_precision_lossy_but_close():
    buf = encode_value(1.234567, AttributeType.FLOAT)
    decoded, _ = decode_value(buf)
    assert decoded == pytest.approx(1.234567, rel=1e-6)


def test_decode_errors():
    with pytest.raises(CodecError):
        decode_value(b"")
    with pytest.raises(CodecError):
        decode_value(b"\xff\x00\x00\x00\x00")  # unknown tag
    with pytest.raises(CodecError):
        decode_value(b"\x01\x00")  # truncated int
    truncated_string = encode_value("hello")[:-3]
    with pytest.raises(CodecError):
        decode_value(truncated_string)


def test_encode_type_mismatch():
    with pytest.raises(CodecError):
        encode_value("text", AttributeType.INTEGER)


# ---------------------------------------------------------------------------
# Measurement codec
# ---------------------------------------------------------------------------

def test_measurement_round_trip():
    m = make_measurement(values=(7, 0.5, "busy", True), seqno=42)
    out = decode_measurement(encode_measurement(m))
    assert out == m


def test_measurement_bad_magic():
    with pytest.raises(CodecError):
        decode_measurement(b"XXXX" + b"\x00" * 20)


def test_measurement_bad_version():
    buf = bytearray(encode_measurement(make_measurement()))
    buf[7] = 99
    with pytest.raises(CodecError):
        decode_measurement(bytes(buf))


def test_measurement_truncated():
    buf = encode_measurement(make_measurement())
    with pytest.raises(CodecError):
        decode_measurement(buf[: len(buf) - 2])


def _same_field(decoded, original):
    """Equal value *and* equal type — ``True`` must not come back as ``1``,
    and NaN compares by its bits."""
    if type(decoded) is not type(original):
        return False
    if isinstance(original, float):
        return struct.pack(">d", decoded) == struct.pack(">d", original)
    return decoded == original


_WIRE_INTS = st.integers(min_value=-(2**63 - 1), max_value=2**63 - 1)


@given(
    values=st.lists(
        st.one_of(
            _WIRE_INTS,
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.booleans(),
            st.text(max_size=50),
        ),
        max_size=8,
    ),
    seqno=_WIRE_INTS,
    timestamp=st.floats(allow_nan=True, allow_infinity=True, width=64),
)
@settings(max_examples=200)
def test_measurement_round_trip_property(values, seqno, timestamp):
    """Every decoded field equals its input and has the same type — the
    property that lets in-process delivery skip the decode."""
    m = make_measurement(values=tuple(values), seqno=seqno,
                         timestamp=timestamp)
    out = decode_measurement(encode_measurement(m))
    for field in ("qualified_name", "service_id", "probe_id", "seqno",
                  "timestamp"):
        assert _same_field(getattr(out, field), getattr(m, field)), field
    assert type(out.timestamp) is float
    assert type(out.values) is tuple
    assert len(out.values) == len(m.values)
    for a, b in zip(out.values, m.values):
        assert _same_field(a, b), (a, b)


def test_round_trip_keeps_bool_and_int_boundaries():
    values = (True, False, 1, 0, 2**31 - 1, -(2**31 - 1), 2**31, -(2**31),
              2**63 - 1, -(2**63 - 1), -0.0, float("nan"))
    out = decode_measurement(encode_measurement(make_measurement(
        values=values)))
    assert all(_same_field(a, b) for a, b in zip(out.values, values))


# ---------------------------------------------------------------------------
# Header peek
# ---------------------------------------------------------------------------

def test_peek_header_matches_full_decode():
    m = make_measurement(values=(7, 0.5, "busy", True), seqno=42)
    buf = encode_measurement(m)
    header = peek_header(buf)
    assert header.qualified_name == m.qualified_name
    assert header.service_id == m.service_id
    # body_offset points at the probe id value
    probe_id, _ = decode_value(buf, header.body_offset)
    assert probe_id == m.probe_id


def test_peek_header_bad_magic():
    with pytest.raises(CodecError):
        peek_header(b"XXXX" + b"\x00" * 20)


def test_peek_header_bad_version():
    buf = bytearray(encode_measurement(make_measurement()))
    buf[7] = 99
    with pytest.raises(CodecError):
        peek_header(bytes(buf))


def test_peek_header_truncated():
    buf = encode_measurement(make_measurement())
    with pytest.raises(CodecError):
        peek_header(buf[:6])


# ---------------------------------------------------------------------------
# Cached-prefix PacketEncoder
# ---------------------------------------------------------------------------

def test_packet_encoder_byte_identical():
    m = make_measurement(values=(7, 0.5, "büsy", True), seqno=42)
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    assert enc.encode(m) == encode_measurement(m)
    # steady state: only per-packet fields change, prefix is reused
    m2 = make_measurement(values=(8, -1.25, "", False), seqno=43,
                          timestamp=999.0)
    assert enc.encode(m2) == encode_measurement(m2)


def test_packet_encoder_rejects_identity_mismatch():
    m = make_measurement()
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    stranger = make_measurement(probe_id="probe-other")
    with pytest.raises(CodecError):
        enc.encode(stranger)


@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            st.booleans(),
            st.text(max_size=40),  # includes non-ASCII and non-BMP chars
        ),
        max_size=8,
    ),
    seqno=st.integers(min_value=0, max_value=2**31),
    timestamp=st.floats(min_value=0, max_value=1e12),
)
@settings(max_examples=150)
def test_packet_encoder_byte_identical_property(values, seqno, timestamp):
    m = make_measurement(values=tuple(values), seqno=seqno,
                         timestamp=timestamp)
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    assert enc.encode(m) == encode_measurement(m)


class _Int(int):
    """An int subclass: must take the generic encode path."""


_EDGE_VALUES = st.one_of(
    st.sampled_from([2**31 - 1, 2**31, -(2**31 - 1), -(2**31), 2**63 - 1,
                     2**63, -(2**63), -(2**63) - 1, True, False, -0.0,
                     float("nan"), float("inf"), _Int(5), _Int(2**40),
                     "\U0001d11e\U0001f4a1", ""]),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(width=64),
    st.text(max_size=12),
)


def _outcome(encode, m):
    """Packet bytes, or the exception type the encoder raised."""
    try:
        return encode(m)
    except Exception as exc:  # the exception type is the result
        return type(exc)


@given(
    values=st.lists(_EDGE_VALUES, max_size=6),
    seqno=st.one_of(st.sampled_from([0, 2**63 - 1, 2**63, -(2**63), True,
                                     _Int(3)]),
                    st.integers(min_value=-(2**64), max_value=2**64)),
    timestamp=st.one_of(st.floats(width=64),
                        st.sampled_from([-0.0, float("nan"), 0, 7, True])),
)
@settings(max_examples=300)
def test_packet_encoder_fast_path_matches_generic_encoder(values, seqno,
                                                          timestamp):
    """The struct fast path is byte-identical to ``encode_measurement`` at
    the XDR int boundaries, for bool, int subclasses, -0.0, NaN and non-BMP
    strings, and raises the same error (CodecError for values that do not
    fit) wherever the generic encoder does."""
    m = make_measurement(values=tuple(values), seqno=seqno,
                         timestamp=timestamp)
    enc = PacketEncoder(m.qualified_name, m.service_id, m.probe_id)
    expected = _outcome(encode_measurement, m)
    assert _outcome(enc.encode, m) == expected
    if any(type(v) is int and not -(2**63) <= v < 2**63 for v in values):
        assert expected is CodecError


# ---------------------------------------------------------------------------
# Truncation / corruption fuzz: malformed wire data must always surface as
# CodecError, never struct.error / IndexError / UnicodeDecodeError.
# ---------------------------------------------------------------------------

@given(
    values=st.lists(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, width=64),
            st.booleans(),
            st.text(max_size=12),
        ),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_every_strict_prefix_raises_codec_error(values):
    buf = encode_measurement(make_measurement(values=tuple(values)))
    assert decode_measurement(buf).values == tuple(values)
    for cut in range(len(buf)):
        with pytest.raises(CodecError):
            decode_measurement(buf[:cut])


@given(
    text=st.text(min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_every_strict_prefix_of_value_raises_codec_error(text):
    buf = encode_value(text)
    for cut in range(len(buf)):
        with pytest.raises(CodecError):
            decode_value(buf[:cut])


def test_peek_header_on_prefixes_never_leaks_raw_errors():
    buf = encode_measurement(make_measurement())
    header = peek_header(buf)
    for cut in range(len(buf)):
        try:
            peeked = peek_header(buf[:cut])
        except CodecError:
            continue  # too short to route — acceptable
        # long enough to carry the routing fields: must agree with the whole
        assert (peeked.qualified_name, peeked.service_id) == (
            header.qualified_name, header.service_id)


@given(junk=st.binary(max_size=80))
@settings(max_examples=200)
def test_decode_random_bytes_raises_only_codec_error(junk):
    for decoder in (decode_measurement, peek_header):
        try:
            decoder(junk)
        except CodecError:
            pass
    try:
        decode_value(junk)
    except CodecError:
        pass


def test_invalid_utf8_string_body_is_codec_error():
    buf = bytearray(encode_value("abcd"))
    buf[-4:] = b"\xff\xfe\xfd\xfc"  # clobber the 4-byte body
    with pytest.raises(CodecError):
        decode_value(bytes(buf))


def test_non_bmp_string_round_trip():
    value = "violin \U0001d11e and bulb \U0001f4a1"
    decoded, offset = decode_value(encode_value(value))
    assert decoded == value
    assert offset == len(encode_value(value))


def test_xdr_smaller_than_naive_json():
    """The design claim behind §5.2.6: values-only XDR beats self-describing
    encodings because names/units live in the information model."""
    m = make_measurement(values=(12345, 0.875))
    xdr_size = len(encode_measurement(m))
    json_size = naive_json_size(
        m, ["queuesize", "utilisation"], ["jobs", "ratio"])
    assert xdr_size < json_size
