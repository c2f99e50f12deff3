"""The versioned frame format every live socket speaks (repro.rt.wire)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidentiality import Sensitive
from repro.core.messages import CheckpointMsg, ResumePoint
from repro.crypto.threshold import PartialSignature
from repro.core.messages import IntroShare, ResponseShare
from repro.errors import ProtocolError
from repro.net.codec import registered_types
from repro.rt.wire import (
    ACCEPTED_VERSIONS,
    FLAG_TRACE_CONTEXT,
    MAX_FRAME_BYTES,
    TRACE_EXT_LEN,
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameDecoder,
    TraceContext,
    decode_frame,
    decode_frame_ex,
    encode_frame,
    extend_frame,
    frame_size,
)
from tests.test_net_codec import CPITM_MESSAGES, PRIME_MESSAGES, sample_id

ALL_SAMPLES = PRIME_MESSAGES + CPITM_MESSAGES


def roundtrip(src, message):
    frame = encode_frame(src, message)
    got_src, got_message, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert got_src == src
    assert got_message == message
    return frame


@pytest.mark.parametrize(
    "message", ALL_SAMPLES, ids=sample_id
)
def test_every_sample_roundtrips(message):
    roundtrip("cc-a-r0", message)


def test_samples_cover_every_registered_type():
    sampled = {type(m) for m in ALL_SAMPLES}
    missing = [t.__name__ for t in registered_types() if t not in sampled]
    assert not missing, f"no frame round-trip sample for: {missing}"


def test_header_layout_v1():
    """A context-free frame is emitted as version 1, flags 0 — the exact
    pre-WatchLab bytes, so v1 peers (and cached frames) keep working."""
    frame = encode_frame("x", PRIME_MESSAGES[0])
    assert frame[:2] == WIRE_MAGIC
    assert frame[2] == 1
    assert frame[3] == 0  # flags, reserved in v1
    declared = int.from_bytes(frame[4:8], "big")
    assert declared == len(frame) - 8
    assert frame_size("x", PRIME_MESSAGES[0]) == len(frame)


def test_header_layout_v2_with_trace_context():
    trace = TraceContext(trace_id=7, parent_span=9, hlc_physical=1.25, hlc_logical=3)
    frame = encode_frame("x", PRIME_MESSAGES[0], trace)
    assert frame[2] == WIRE_VERSION == 2
    assert frame[3] == FLAG_TRACE_CONTEXT
    base = encode_frame("x", PRIME_MESSAGES[0])
    assert len(frame) == len(base) + TRACE_EXT_LEN
    src, message, got_trace, end = decode_frame_ex(frame)
    assert (src, message, end) == ("x", PRIME_MESSAGES[0], len(frame))
    assert got_trace == trace


def test_extend_frame_matches_direct_encoding():
    trace = TraceContext(trace_id=2 ** 63, parent_span=0, hlc_physical=0.5)
    base = encode_frame("cc-a-r0", PRIME_MESSAGES[0])
    assert extend_frame(base, trace) == encode_frame("cc-a-r0", PRIME_MESSAGES[0], trace)


def test_v1_frames_still_accepted():
    assert 1 in ACCEPTED_VERSIONS
    frame = encode_frame("x", PRIME_MESSAGES[0])  # v1 bytes
    src, message, trace, _ = decode_frame_ex(frame)
    assert (src, message, trace) == ("x", PRIME_MESSAGES[0], None)


def test_bad_magic_rejected():
    frame = bytearray(encode_frame("x", PRIME_MESSAGES[0]))
    frame[0] ^= 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_future_version_rejected():
    frame = bytearray(encode_frame("x", PRIME_MESSAGES[0]))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_nonzero_flags_rejected_in_v1():
    frame = bytearray(encode_frame("x", PRIME_MESSAGES[0]))
    frame[3] = 1
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_unknown_flag_bits_rejected_in_v2():
    trace = TraceContext(trace_id=1, parent_span=1, hlc_physical=0.0)
    frame = bytearray(encode_frame("x", PRIME_MESSAGES[0], trace))
    frame[3] |= 0x80
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_trace_flag_without_room_for_extension_rejected():
    # A v2 frame claiming the extension but whose body is shorter than
    # the fixed 28-byte block must be rejected before parsing.
    body = b"\x00" * (TRACE_EXT_LEN - 1)
    frame = WIRE_MAGIC + bytes([2, FLAG_TRACE_CONTEXT]) + len(body).to_bytes(4, "big") + body
    with pytest.raises(ProtocolError):
        decode_frame(frame)


def test_oversized_length_rejected():
    frame = bytearray(encode_frame("x", PRIME_MESSAGES[0]))
    frame[4:8] = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


@given(
    signer=st.integers(0, 13),
    value=st.integers(1, 2 ** 380),
    seq=st.integers(1, 10 ** 9),
)
@settings(max_examples=50)
def test_threshold_share_messages_roundtrip_property(signer, value, seq):
    """Nested threshold-signature shares survive the frame intact."""
    partial = PartialSignature(signer=signer, value=value)
    roundtrip(
        "dc-1-r0",
        IntroShare(
            alias="ab" * 8, client_seq=seq, update_digest=b"\x01" * 32, partial=partial
        ),
    )
    roundtrip(
        "cc-b-r2",
        ResponseShare(
            client_id="client-00",
            client_seq=seq,
            response_digest=b"\x02" * 32,
            partial=partial,
        ),
    )


@given(
    blob=st.binary(min_size=0, max_size=2048),
    ordinal=st.integers(0, 10 ** 6),
    pairs=st.dictionaries(
        st.sampled_from(["r0#0", "r1#0", "r2#1", "r3#2"]), st.integers(0, 10 ** 6)
    ),
    plaintext=st.booleans(),
)
@settings(max_examples=50)
def test_checkpoint_payloads_roundtrip_property(blob, ordinal, pairs, plaintext):
    """Checkpoint payloads — encrypted or Sensitive — survive the frame."""
    resume = ResumePoint.from_engine(ordinal // 10, ordinal, pairs)
    body = Sensitive(blob, label="state-snapshot") if plaintext else blob
    roundtrip(
        "cc-a-r3",
        CheckpointMsg(ordinal=ordinal, resume=resume, blob=body, signer="cc-a-r3"),
    )


@given(data=st.data())
@settings(max_examples=30)
def test_decoder_reassembles_arbitrary_chunking(data):
    """A frame stream split at any byte boundaries decodes identically."""
    messages = data.draw(
        st.lists(st.sampled_from(ALL_SAMPLES), min_size=1, max_size=5)
    )
    stream = b"".join(encode_frame(f"h{i}", m) for i, m in enumerate(messages))
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(stream)), min_size=0, max_size=6)
        )
    )
    decoder = FrameDecoder()
    got = []
    last = 0
    for cut in cuts + [len(stream)]:
        got.extend(decoder.feed(stream[last:cut]))
        last = cut
    assert got == [(f"h{i}", m) for i, m in enumerate(messages)]
    assert decoder.pending_bytes == 0


def test_decoder_rejects_corrupt_stream_midway():
    good = encode_frame("a", PRIME_MESSAGES[0])
    bad = bytearray(encode_frame("b", PRIME_MESSAGES[1]))
    bad[0] ^= 0xFF
    decoder = FrameDecoder()
    assert decoder.feed(good) == [("a", PRIME_MESSAGES[0])]
    with pytest.raises(ProtocolError):
        decoder.feed(bytes(bad))


def test_decoder_rejects_invalid_utf8_source_as_protocol_error():
    # Decoding is total: a bit-flipped source string is a ProtocolError,
    # never a UnicodeDecodeError escaping the stream decoder.
    frame = bytearray(encode_frame("dc-1-r0", PRIME_MESSAGES[0]))
    src_start = 8 + 1  # fixed v1 header, then the one-byte source length
    assert frame[src_start:src_start + 7] == b"dc-1-r0"
    frame[src_start] ^= 0x80  # 'd' becomes a UTF-8 lead byte with no tail
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(bytes(frame))
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_decoder_yields_context_triples_when_asked():
    trace = TraceContext(trace_id=11, parent_span=22, hlc_physical=3.5, hlc_logical=1)
    stream = encode_frame("a", PRIME_MESSAGES[0]) + encode_frame(
        "b", PRIME_MESSAGES[1], trace
    )
    decoder = FrameDecoder(include_context=True)
    got = decoder.feed(stream)
    assert got == [
        ("a", PRIME_MESSAGES[0], None),
        ("b", PRIME_MESSAGES[1], trace),
    ]


@given(
    trace_id=st.integers(0, 2 ** 64 - 1),
    parent=st.integers(0, 2 ** 64 - 1),
    physical=st.floats(0, 1e9, allow_nan=False),
    logical=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=50)
def test_trace_context_roundtrips_property(trace_id, parent, physical, logical):
    trace = TraceContext(trace_id, parent, physical, logical)
    for message in (PRIME_MESSAGES[0], CPITM_MESSAGES[0]):
        frame = encode_frame("dc-1-r0", message, trace)
        src, got, got_trace, end = decode_frame_ex(frame)
        assert (src, got, got_trace, end) == ("dc-1-r0", message, trace, len(frame))
