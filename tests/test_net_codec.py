"""Wire codec round-trip tests for every protocol message type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidentiality import Sensitive
from repro.core.messages import (
    BatchProposal,
    BatchRecord,
    BatchShare,
    CertifiedResponse,
    CheckpointDeltaMsg,
    CheckpointMsg,
    ClientResponse,
    ClientUpdate,
    EncryptedUpdate,
    IntroShare,
    KeyProposal,
    ResponseBatchShare,
    ResponseShare,
    ResumePoint,
    SignedUpdateBatch,
    StateXferResponse,
    StateXferSolicit,
    XferRequest,
)
from repro.crypto.merkle import MerkleProof
from repro.crypto.threshold import PartialSignature
from repro.errors import ProtocolError
from repro.net.codec import (
    decode_message,
    encode_message,
    encoded_size,
    read_varint,
    registered_types,
    write_varint,
)
from repro.shard.messages import (
    CrossShardCommit,
    CrossShardIntent,
    CrossShardPrepare,
    ShardMapAnnounce,
)
from repro.prime.messages import (
    BatchFetch,
    BatchFetchReply,
    Commit,
    Heartbeat,
    NewView,
    OpaqueUpdate,
    PoAck,
    PoAru,
    PoFetch,
    PoFetchReply,
    PoRequest,
    PreparedCert,
    PrePrepare,
    Prepare,
    Suspect,
    VcState,
)


def roundtrip(message):
    encoded = encode_message(message)
    decoded, consumed = decode_message(encoded)
    assert consumed == len(encoded)
    assert decoded == message
    return encoded


class TestVarint:
    @given(st.integers(0, 2 ** 62))
    @settings(max_examples=100)
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            write_varint(bytearray(), -1)

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            read_varint(b"\x80", 0)


SAMPLE_RESUME = ResumePoint(batch_seq=7, ordinal=42, ordered_through=(("r0#0", 5), ("r1#0", 3)))
SAMPLE_ENCRYPTED = EncryptedUpdate(alias="abcd" * 4, client_seq=9, ciphertext=b"\x01" * 48, threshold_sig=b"\x02" * 48)
SAMPLE_PLAIN = ClientUpdate(client_id="client-03", client_seq=4, body=Sensitive(b"SET x 1", label="client-update-body"), signature=b"\x03" * 64)
SAMPLE_PROPOSAL = KeyProposal(alias="abcd" * 4, range_start=101, range_end=200, proposer="cc-a-r1", encrypted_seed=b"\x04" * 64)
SAMPLE_INTENT = CrossShardIntent(
    client_id="client-03",
    client_seq=7,
    home_shard=1,
    targets=(0, 1),
    body=Sensitive(b"SET xkey-client-03-2 xvalue-8", label="client-update-body"),
)
SAMPLE_PREPARE = CrossShardPrepare(
    client_id="client-03",
    client_seq=7,
    home_shard=1,
    intent_digest=b"\x19" * 32,
    cert_kind=0,
    cert_sig=b"\x1a" * 48,
)


PRIME_MESSAGES = [
    PoRequest(origin="r0#0", seq=3, update=OpaqueUpdate(digest=b"\x05" * 32, payload=SAMPLE_ENCRYPTED, size=200)),
    PoAck(origin="r0#0", seq=3, digest=b"\x06" * 32),
    PoAru(vector={"r0#0": 9, "r1#2": 1}),
    PrePrepare(view=2, seq=10, cutoffs={"r0#0": 9}),
    Prepare(view=2, seq=10, content_digest=b"\x07" * 32),
    Commit(view=2, seq=10, content_digest=b"\x07" * 32),
    Heartbeat(view=3),
    Suspect(target_view=4),
    VcState(view=4, last_committed=8, prepared=(PreparedCert(view=2, seq=9, cutoffs={"r1#0": 2}),)),
    NewView(view=4, start_seq=8, adopted=(PreparedCert(view=4, seq=9, cutoffs={}),)),
    PoFetch(origin="r1#0", seq=2),
    PoFetchReply(request=PoRequest(origin="r1#0", seq=2, update=OpaqueUpdate(digest=b"\x08" * 32, payload=SAMPLE_PLAIN, size=150))),
    BatchFetch(seqs=(12, 14, 15)),
    BatchFetch(seqs=()),
    BatchFetchReply(seq=12, cutoffs={"r0#0": 9, "r1#0": 2}),
]

CPITM_MESSAGES = [
    SAMPLE_PLAIN,
    SAMPLE_ENCRYPTED,
    IntroShare(alias="abcd" * 4, client_seq=4, update_digest=b"\x09" * 32, partial=PartialSignature(signer=3, value=12345678901234567890)),
    ResponseShare(client_id="client-03", client_seq=4, response_digest=b"\x0a" * 32, partial=PartialSignature(signer=1, value=2 ** 350 + 99)),
    ClientResponse(client_id="client-03", client_seq=4, body=Sensitive(b"OK", label="client-response"), threshold_sig=b"\x0b" * 48),
    SAMPLE_PROPOSAL,
    CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=b"\x0c" * 256, signer="cc-a-r0"),
    CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=Sensitive(b"plain state", label="state-snapshot"), signer="dc-1-r0"),
    # CompactLab delta-encoded checkpoints (chain nodes between fulls).
    CheckpointDeltaMsg(ordinal=125, base_ordinal=100, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x1f" * 64, signer="cc-a-r0"),
    CheckpointDeltaMsg(ordinal=150, base_ordinal=125, full_ordinal=100, resume=SAMPLE_RESUME, blob=Sensitive(b'{"set":{}}', label="state-delta"), signer="dc-1-r0"),
    StateXferSolicit(requester="cc-b-r1", nonce=2),
    StateXferSolicit(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3),
    XferRequest(requester="cc-b-r1", nonce=2),
    XferRequest(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3),
    BatchRecord(batch_seq=11, resume=SAMPLE_RESUME, entries=((43, SAMPLE_ENCRYPTED), (44, SAMPLE_PROPOSAL))),
    StateXferResponse(
        requester="cc-b-r1",
        nonce=2,
        checkpoint=CheckpointMsg(ordinal=100, resume=SAMPLE_RESUME, blob=b"\x0d" * 64, signer="dc-2-r0"),
        batches=(BatchRecord(batch_seq=11, resume=SAMPLE_RESUME, entries=((43, SAMPLE_ENCRYPTED),)),),
        view=4,
        responder="dc-2-r0",
        part_index=1,
        part_count=3,
    ),
    StateXferResponse(requester="x", nonce=1, checkpoint=None, batches=(), view=0, responder="y"),
    # Deltas-only transfer: requester already holds the full anchor.
    StateXferResponse(
        requester="cc-b-r1",
        nonce=3,
        checkpoint=None,
        batches=(),
        view=4,
        responder="dc-2-r0",
        deltas=(
            CheckpointDeltaMsg(ordinal=125, base_ordinal=100, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x20" * 48, signer="dc-2-r0"),
            CheckpointDeltaMsg(ordinal=150, base_ordinal=125, full_ordinal=100, resume=SAMPLE_RESUME, blob=b"\x21" * 48, signer="dc-2-r0"),
        ),
    ),
    # BatchLab introduction-batching messages.
    BatchProposal(proposer="cc-a-r0", batch_no=3, items=(SAMPLE_ENCRYPTED, EncryptedUpdate(alias="ef01" * 4, client_seq=2, ciphertext=b"\x0e" * 48))),
    BatchProposal(proposer="cc-b-r1", batch_no=1, items=(SAMPLE_ENCRYPTED,)),
    BatchShare(proposer="cc-a-r0", batch_no=3, root=b"\x0f" * 32, count=2, partial=PartialSignature(signer=2, value=2 ** 300 + 7)),
    SignedUpdateBatch(root=b"\x10" * 32, items=(SAMPLE_ENCRYPTED,), threshold_sig=b"\x11" * 48),
    ResponseBatchShare(root=b"\x12" * 32, count=4, partial=PartialSignature(signer=0, value=2 ** 350 + 123)),
    CertifiedResponse(
        client_id="client-03",
        client_seq=4,
        body=Sensitive(b"OK", label="client-response"),
        batch_root=b"\x13" * 32,
        batch_count=4,
        batch_sig=b"\x14" * 48,
        proof=MerkleProof(leaf_index=2, path=((b"\x15" * 32, True), (b"\x16" * 32, False))),
    ),
    CertifiedResponse(
        client_id="client-07",
        client_seq=1,
        body=Sensitive(b"VALUE 9", label="client-response"),
        batch_root=b"\x17" * 32,
        batch_count=1,
        batch_sig=b"\x18" * 48,
        proof=MerkleProof(leaf_index=0, path=()),
    ),
    # ShardLab routing + cross-shard ordering messages.
    ShardMapAnnounce(seed=19, shards=4, version=2),
    SAMPLE_INTENT,
    SAMPLE_PREPARE,
    CrossShardPrepare(
        client_id="client-03",
        client_seq=7,
        home_shard=1,
        intent_digest=b"\x1b" * 32,
        cert_kind=1,
        cert_sig=b"\x1c" * 48,
        batch_root=b"\x1d" * 32,
        batch_count=3,
        proof=MerkleProof(leaf_index=1, path=((b"\x1e" * 32, False),)),
    ),
    CrossShardCommit(intent=SAMPLE_INTENT, prepare=SAMPLE_PREPARE),
]


# Test-id suffixes for the samples above, one per occurrence of a type, in
# list order.  They were once computed as ``id(m) % 97``, which changes from
# run to run; frozen here, every sample keeps the same test name in every run.
_SAMPLE_ID_SUFFIXES = {
    "PoRequest": (84,),
    "PoAck": (2,),
    "PoAru": (38,),
    "PrePrepare": (78,),
    "Prepare": (33,),
    "Commit": (82,),
    "Heartbeat": (40,),
    "Suspect": (43,),
    "VcState": (53,),
    "NewView": (3,),
    "PoFetch": (57,),
    "PoFetchReply": (95,),
    "BatchFetch": (56, 66),
    "BatchFetchReply": (81,),
    "ClientUpdate": (14,),
    "EncryptedUpdate": (20,),
    "IntroShare": (39,),
    "ResponseShare": (88,),
    "ClientResponse": (11,),
    "KeyProposal": (46,),
    "CheckpointMsg": (22, 59),
    "CheckpointDeltaMsg": (27, 73),
    "StateXferSolicit": (50, 59),
    "XferRequest": (53, 95),
    "BatchRecord": (55,),
    "StateXferResponse": (10, 19, 82),
    "BatchProposal": (69, 87),
    "BatchShare": (56,),
    "SignedUpdateBatch": (90,),
    "ResponseBatchShare": (11,),
    "CertifiedResponse": (45, 73),
    "ShardMapAnnounce": (53,),
    "CrossShardIntent": (77,),
    "CrossShardPrepare": (52, 91),
    "CrossShardCommit": (87,),
}


def _sample_ids(samples):
    seen = {}
    ids = {}
    for message in samples:
        name = type(message).__name__
        index = seen.get(name, 0)
        seen[name] = index + 1
        ids[id(message)] = f"{name}-{_SAMPLE_ID_SUFFIXES[name][index]}"
    return ids


_SAMPLE_IDS = _sample_ids(PRIME_MESSAGES + CPITM_MESSAGES)


def sample_id(message):
    """Stable pytest id for one of the module's sample messages."""
    return _SAMPLE_IDS[id(message)]


@pytest.mark.parametrize("message", PRIME_MESSAGES, ids=lambda m: type(m).__name__)
def test_prime_message_roundtrip(message):
    roundtrip(message)


@pytest.mark.parametrize("message", CPITM_MESSAGES, ids=sample_id)
def test_cpitm_message_roundtrip(message):
    roundtrip(message)


def test_every_registered_type_is_covered():
    covered = {type(m) for m in PRIME_MESSAGES + CPITM_MESSAGES}
    assert set(registered_types()) <= covered


def test_unknown_type_rejected():
    with pytest.raises(ProtocolError):
        encode_message(object())


def test_unknown_tag_rejected():
    with pytest.raises(ProtocolError):
        decode_message(b"\xff\x00")


def test_xfer_request_signing_bytes_keeps_legacy_form():
    # The no-disk-state digest feeds ordered-batch trace digests; changing
    # it would break the sim's byte-identity contract across versions.
    legacy = XferRequest(requester="cc-b-r1", nonce=2)
    assert legacy.signing_bytes() == b"xfer|cc-b-r1|2"
    advertised = XferRequest(requester="cc-b-r1", nonce=2, have_seq=75, have_ordinal=3)
    assert advertised.signing_bytes() == b"xfer|cc-b-r1|2|75|3"
    assert legacy.digest() != advertised.digest()


def test_sensitive_blob_survives_the_wire():
    message = CheckpointMsg(
        ordinal=1,
        resume=SAMPLE_RESUME,
        blob=Sensitive(b"secrets", label="state-snapshot"),
        signer="r",
    )
    decoded, _ = decode_message(encode_message(message))
    assert decoded.sensitive_parts() == ["state-snapshot"]


def test_encoded_size_tracks_payload():
    small = EncryptedUpdate(alias="a", client_seq=1, ciphertext=b"x" * 10)
    large = EncryptedUpdate(alias="a", client_seq=1, ciphertext=b"x" * 1000)
    assert encoded_size(large) - encoded_size(small) in range(988, 996)


def test_wire_size_estimates_are_same_magnitude():
    # The protocol layer's fast estimates should be within 3x of the real
    # encoding for typical messages (they include header allowances).
    for message in PRIME_MESSAGES + CPITM_MESSAGES:
        estimate = message.wire_size()
        actual = encoded_size(message)
        assert estimate >= actual / 3, type(message).__name__
        assert estimate <= max(actual * 4, actual + 256), type(message).__name__


@given(
    st.text(min_size=1, max_size=20).filter(lambda s: s.isprintable()),
    st.integers(1, 10 ** 9),
    st.binary(max_size=300),
    st.binary(max_size=64),
)
@settings(max_examples=40)
def test_encrypted_update_roundtrip_property(alias, seq, ciphertext, sig):
    roundtrip(
        EncryptedUpdate(alias=alias, client_seq=seq, ciphertext=ciphertext, threshold_sig=sig)
    )


@given(st.dictionaries(st.sampled_from(["a#0", "b#1", "c#2"]), st.integers(0, 10 ** 6)))
@settings(max_examples=40)
def test_po_aru_roundtrip_property(vector):
    encoded = encode_message(PoAru(vector=vector))
    decoded, _ = decode_message(encoded)
    assert dict(decoded.vector) == vector


def test_stream_of_messages_decodes_sequentially():
    stream = b"".join(encode_message(m) for m in PRIME_MESSAGES[:5])
    offset = 0
    decoded = []
    while offset < len(stream):
        message, offset = decode_message(stream, offset)
        decoded.append(message)
    assert decoded == PRIME_MESSAGES[:5]
