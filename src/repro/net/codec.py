"""Binary wire codec for every protocol message.

The simulation passes Python objects between hosts for speed, but a
deployable system needs a wire format; this module defines one and the
test suite proves it round-trips every message type. It also lets tools
measure *exact* message sizes (``encoded_size``) where the protocol
layer's ``wire_size()`` methods give fast estimates.

Format: one tag byte selecting the message type, then the type's fields
in order. Primitives:

- unsigned integers: LEB128 varints,
- byte strings: varint length + raw bytes,
- strings: UTF-8 via the byte-string encoding,
- maps/sequences: varint count + elements (maps sorted by key, so
  encoding is canonical and encode(decode(x)) == x),
- nested messages: recursively tagged, so heterogeneous payloads
  (an ordered batch holds encrypted updates next to key proposals)
  decode without out-of-band type information.

``Sensitive`` wrappers survive the trip: tag-prefixed inside blob fields,
so a decoded Spire-baseline checkpoint is still recognizably plaintext to
the confidentiality auditor.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Type

from repro.cache import FrameCache
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
from repro.crypto.threshold import PartialSignature, ShareProof
from repro.errors import ProtocolError
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

# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ProtocolError(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ProtocolError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ProtocolError("varint too long")


def write_bytes(out: bytearray, value: bytes) -> None:
    write_varint(out, len(value))
    out.extend(value)


def read_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    length, offset = read_varint(data, offset)
    if offset + length > len(data):
        raise ProtocolError("truncated byte string")
    return bytes(data[offset : offset + length]), offset + length


def write_str(out: bytearray, value: str) -> None:
    write_bytes(out, value.encode("utf-8"))


def read_str(data: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = read_bytes(data, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in string field: {exc.reason}") from None


def write_int_map(out: bytearray, mapping) -> None:
    items = sorted(mapping.items())
    write_varint(out, len(items))
    for key, value in items:
        write_str(out, key)
        write_varint(out, value)


def read_int_map(data: bytes, offset: int) -> Tuple[Dict[str, int], int]:
    count, offset = read_varint(data, offset)
    mapping: Dict[str, int] = {}
    for _ in range(count):
        key, offset = read_str(data, offset)
        value, offset = read_varint(data, offset)
        mapping[key] = value
    return mapping, offset


def _write_blob(out: bytearray, blob) -> None:
    """A blob is ciphertext bytes (0) or Sensitive plaintext (1)."""
    if isinstance(blob, Sensitive):
        out.append(1)
        write_str(out, blob.label)
        write_bytes(out, blob.data)
    else:
        out.append(0)
        write_bytes(out, blob)


def _read_blob(data: bytes, offset: int):
    kind = data[offset]
    offset += 1
    if kind == 1:
        label, offset = read_str(data, offset)
        raw, offset = read_bytes(data, offset)
        return Sensitive(raw, label=label), offset
    raw, offset = read_bytes(data, offset)
    return raw, offset


def _write_bigint(out: bytearray, value: int) -> None:
    write_bytes(out, value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))


def _read_bigint(data: bytes, offset: int) -> Tuple[int, int]:
    raw, offset = read_bytes(data, offset)
    return int.from_bytes(raw, "big"), offset


def _write_partial(out: bytearray, partial: PartialSignature) -> None:
    write_varint(out, partial.signer)
    _write_bigint(out, partial.value)
    if partial.proof is not None:
        out.append(1)
        _write_bigint(out, partial.proof.challenge)
        _write_bigint(out, partial.proof.response)
    else:
        out.append(0)


def _read_partial(data: bytes, offset: int) -> Tuple[PartialSignature, int]:
    signer, offset = read_varint(data, offset)
    value, offset = _read_bigint(data, offset)
    has_proof = data[offset]
    offset += 1
    proof = None
    if has_proof:
        challenge, offset = _read_bigint(data, offset)
        response, offset = _read_bigint(data, offset)
        proof = ShareProof(challenge=challenge, response=response)
    return PartialSignature(signer=signer, value=value, proof=proof), offset


def _write_resume(out: bytearray, resume: ResumePoint) -> None:
    write_varint(out, resume.batch_seq)
    write_varint(out, resume.ordinal)
    write_int_map(out, dict(resume.ordered_through))


def _read_resume(data: bytes, offset: int) -> Tuple[ResumePoint, int]:
    batch_seq, offset = read_varint(data, offset)
    ordinal, offset = read_varint(data, offset)
    ordered, offset = read_int_map(data, offset)
    return (
        ResumePoint(
            batch_seq=batch_seq,
            ordinal=ordinal,
            ordered_through=tuple(sorted(ordered.items())),
        ),
        offset,
    )


# ---------------------------------------------------------------------------
# per-type encoders/decoders
# ---------------------------------------------------------------------------

_ENCODERS: Dict[Type, Tuple[int, Callable]] = {}
_DECODERS: Dict[int, Callable] = {}


def _register(tag: int, message_type: Type):
    def wrap(pair):
        encode, decode = pair
        _ENCODERS[message_type] = (tag, encode)
        _DECODERS[tag] = decode
        return pair

    return wrap


def encode_message(message: Any) -> bytes:
    """Serialize any protocol message to bytes."""
    entry = _ENCODERS.get(type(message))
    if entry is None:
        raise ProtocolError(f"no codec for {type(message).__name__}")
    tag, encode = entry
    out = bytearray([tag])
    encode(out, message)
    return bytes(out)


def decode_message(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Deserialize one message; returns (message, next_offset)."""
    if offset >= len(data):
        raise ProtocolError("empty buffer")
    decode = _DECODERS.get(data[offset])
    if decode is None:
        raise ProtocolError(f"unknown message tag {data[offset]}")
    return decode(data, offset + 1)


# Identity-keyed memo for encode_message. Messages are frozen
# dataclasses, so a given object's encoding never changes; broadcast
# fan-outs, nested re-encodes (OpaqueUpdate / BatchRecord / state
# transfer), and encoded_size probes reuse the same bytes instead of
# re-serializing. Bounded LRU; entries pin the keyed object so ids
# cannot be recycled while an entry lives.
_PAYLOAD_CACHE = FrameCache(capacity=4096)
_payload_cache_enabled = True


def set_payload_cache_enabled(enabled: bool) -> bool:
    """Toggle the module-level payload cache; returns the previous
    setting. Disabling also clears the cache."""
    global _payload_cache_enabled
    previous = _payload_cache_enabled
    _payload_cache_enabled = bool(enabled)
    if not enabled:
        _PAYLOAD_CACHE.clear()
    return previous


def payload_cache_enabled() -> bool:
    return _payload_cache_enabled


def clear_payload_cache() -> None:
    _PAYLOAD_CACHE.clear()


def payload_cache_len() -> int:
    return len(_PAYLOAD_CACHE)


def encode_message_cached(message: Any) -> bytes:
    """``encode_message`` memoized on message object identity."""
    if not _payload_cache_enabled:
        return encode_message(message)
    return _PAYLOAD_CACHE.get_or_build(message, encode_message)


def encoded_size(message: Any) -> int:
    """Exact wire size of a message under this codec."""
    return len(encode_message_cached(message))


# -- Prime engine messages ----------------------------------------------------

_register(1, PoRequest)(
    (
        lambda out, m: (
            write_str(out, m.origin),
            write_varint(out, m.seq),
            _encode_opaque(out, m.update),
        ),
        lambda data, o: _decode_po_request(data, o),
    )
)


def _encode_opaque(out: bytearray, update: OpaqueUpdate) -> None:
    write_bytes(out, update.digest)
    write_varint(out, update.size)
    nested = update.encoded
    if nested is None:
        nested = encode_message_cached(update.payload)
    write_bytes(out, nested)


def _decode_opaque(data: bytes, offset: int) -> Tuple[OpaqueUpdate, int]:
    digest, offset = read_bytes(data, offset)
    size, offset = read_varint(data, offset)
    nested, offset = read_bytes(data, offset)
    payload, _ = decode_message(nested)
    return (
        OpaqueUpdate(digest=digest, payload=payload, size=size, encoded=nested),
        offset,
    )


def _decode_po_request(data: bytes, offset: int) -> Tuple[PoRequest, int]:
    origin, offset = read_str(data, offset)
    seq, offset = read_varint(data, offset)
    update, offset = _decode_opaque(data, offset)
    return PoRequest(origin=origin, seq=seq, update=update), offset


_register(2, PoAck)(
    (
        lambda out, m: (
            write_str(out, m.origin),
            write_varint(out, m.seq),
            write_bytes(out, m.digest),
        ),
        lambda data, o: _decode_po_ack(data, o),
    )
)


def _decode_po_ack(data, offset):
    origin, offset = read_str(data, offset)
    seq, offset = read_varint(data, offset)
    digest, offset = read_bytes(data, offset)
    return PoAck(origin=origin, seq=seq, digest=digest), offset


_register(3, PoAru)(
    (
        lambda out, m: write_int_map(out, dict(m.vector)),
        lambda data, o: _decode_po_aru(data, o),
    )
)


def _decode_po_aru(data, offset):
    vector, offset = read_int_map(data, offset)
    return PoAru(vector=vector), offset


_register(4, PrePrepare)(
    (
        lambda out, m: (
            write_varint(out, m.view),
            write_varint(out, m.seq),
            write_int_map(out, dict(m.cutoffs)),
        ),
        lambda data, o: _decode_pre_prepare(data, o),
    )
)


def _decode_pre_prepare(data, offset):
    view, offset = read_varint(data, offset)
    seq, offset = read_varint(data, offset)
    cutoffs, offset = read_int_map(data, offset)
    return PrePrepare(view=view, seq=seq, cutoffs=cutoffs), offset


def _vote_codec(message_type):
    def encode(out, m):
        write_varint(out, m.view)
        write_varint(out, m.seq)
        write_bytes(out, m.content_digest)

    def decode(data, offset):
        view, offset = read_varint(data, offset)
        seq, offset = read_varint(data, offset)
        digest, offset = read_bytes(data, offset)
        return message_type(view=view, seq=seq, content_digest=digest), offset

    return encode, decode


_register(5, Prepare)(_vote_codec(Prepare))
_register(6, Commit)(_vote_codec(Commit))

_register(7, Heartbeat)(
    (
        lambda out, m: write_varint(out, m.view),
        lambda data, o: (lambda v, o2: (Heartbeat(view=v), o2))(*read_varint(data, o)),
    )
)

_register(8, Suspect)(
    (
        lambda out, m: write_varint(out, m.target_view),
        lambda data, o: (lambda v, o2: (Suspect(target_view=v), o2))(*read_varint(data, o)),
    )
)


def _write_cert(out: bytearray, cert: PreparedCert) -> None:
    write_varint(out, cert.view)
    write_varint(out, cert.seq)
    write_int_map(out, dict(cert.cutoffs))


def _read_cert(data, offset):
    view, offset = read_varint(data, offset)
    seq, offset = read_varint(data, offset)
    cutoffs, offset = read_int_map(data, offset)
    return PreparedCert(view=view, seq=seq, cutoffs=cutoffs), offset


def _encode_vc_state(out, m: VcState):
    write_varint(out, m.view)
    write_varint(out, m.last_committed)
    write_varint(out, len(m.prepared))
    for cert in m.prepared:
        _write_cert(out, cert)


def _decode_vc_state(data, offset):
    view, offset = read_varint(data, offset)
    last_committed, offset = read_varint(data, offset)
    count, offset = read_varint(data, offset)
    certs = []
    for _ in range(count):
        cert, offset = _read_cert(data, offset)
        certs.append(cert)
    return VcState(view=view, last_committed=last_committed, prepared=tuple(certs)), offset


_register(9, VcState)((_encode_vc_state, _decode_vc_state))


def _encode_new_view(out, m: NewView):
    write_varint(out, m.view)
    write_varint(out, m.start_seq)
    write_varint(out, len(m.adopted))
    for cert in m.adopted:
        _write_cert(out, cert)


def _decode_new_view(data, offset):
    view, offset = read_varint(data, offset)
    start_seq, offset = read_varint(data, offset)
    count, offset = read_varint(data, offset)
    certs = []
    for _ in range(count):
        cert, offset = _read_cert(data, offset)
        certs.append(cert)
    return NewView(view=view, start_seq=start_seq, adopted=tuple(certs)), offset


_register(10, NewView)((_encode_new_view, _decode_new_view))

_register(11, PoFetch)(
    (
        lambda out, m: (write_str(out, m.origin), write_varint(out, m.seq)),
        lambda data, o: _decode_po_fetch(data, o),
    )
)


def _decode_po_fetch(data, offset):
    origin, offset = read_str(data, offset)
    seq, offset = read_varint(data, offset)
    return PoFetch(origin=origin, seq=seq), offset


_register(12, PoFetchReply)(
    (
        lambda out, m: write_bytes(out, encode_message_cached(m.request)),
        lambda data, o: _decode_po_fetch_reply(data, o),
    )
)


def _decode_po_fetch_reply(data, offset):
    nested, offset = read_bytes(data, offset)
    request, _ = decode_message(nested)
    return PoFetchReply(request=request), offset


def _encode_batch_fetch(out, m: BatchFetch):
    write_varint(out, len(m.seqs))
    for seq in m.seqs:
        write_varint(out, seq)


def _decode_batch_fetch(data, offset):
    count, offset = read_varint(data, offset)
    seqs = []
    for _ in range(count):
        seq, offset = read_varint(data, offset)
        seqs.append(seq)
    return BatchFetch(seqs=tuple(seqs)), offset


_register(13, BatchFetch)((_encode_batch_fetch, _decode_batch_fetch))

_register(14, BatchFetchReply)(
    (
        lambda out, m: (
            write_varint(out, m.seq),
            write_int_map(out, dict(m.cutoffs)),
        ),
        lambda data, o: _decode_batch_fetch_reply(data, o),
    )
)


def _decode_batch_fetch_reply(data, offset):
    seq, offset = read_varint(data, offset)
    cutoffs, offset = read_int_map(data, offset)
    return BatchFetchReply(seq=seq, cutoffs=cutoffs), offset


# -- CP-ITM messages ------------------------------------------------------------

def _encode_client_update(out, m: ClientUpdate):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_str(out, m.body.label)
    write_bytes(out, m.body.data)
    write_bytes(out, m.signature)


def _decode_client_update(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    label, offset = read_str(data, offset)
    body, offset = read_bytes(data, offset)
    signature, offset = read_bytes(data, offset)
    return (
        ClientUpdate(
            client_id=client_id,
            client_seq=client_seq,
            body=Sensitive(body, label=label),
            signature=signature,
        ),
        offset,
    )


_register(20, ClientUpdate)((_encode_client_update, _decode_client_update))


def _encode_encrypted_update(out, m: EncryptedUpdate):
    write_str(out, m.alias)
    write_varint(out, m.client_seq)
    write_bytes(out, m.ciphertext)
    write_bytes(out, m.threshold_sig)


def _decode_encrypted_update(data, offset):
    alias, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    ciphertext, offset = read_bytes(data, offset)
    threshold_sig, offset = read_bytes(data, offset)
    return (
        EncryptedUpdate(
            alias=alias,
            client_seq=client_seq,
            ciphertext=ciphertext,
            threshold_sig=threshold_sig,
        ),
        offset,
    )


_register(21, EncryptedUpdate)((_encode_encrypted_update, _decode_encrypted_update))


def _encode_intro_share(out, m: IntroShare):
    write_str(out, m.alias)
    write_varint(out, m.client_seq)
    write_bytes(out, m.update_digest)
    _write_partial(out, m.partial)


def _decode_intro_share(data, offset):
    alias, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    digest, offset = read_bytes(data, offset)
    partial, offset = _read_partial(data, offset)
    return (
        IntroShare(
            alias=alias, client_seq=client_seq, update_digest=digest, partial=partial
        ),
        offset,
    )


_register(22, IntroShare)((_encode_intro_share, _decode_intro_share))


def _encode_response_share(out, m: ResponseShare):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_bytes(out, m.response_digest)
    _write_partial(out, m.partial)


def _decode_response_share(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    digest, offset = read_bytes(data, offset)
    partial, offset = _read_partial(data, offset)
    return (
        ResponseShare(
            client_id=client_id,
            client_seq=client_seq,
            response_digest=digest,
            partial=partial,
        ),
        offset,
    )


_register(23, ResponseShare)((_encode_response_share, _decode_response_share))


def _encode_client_response(out, m: ClientResponse):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_str(out, m.body.label)
    write_bytes(out, m.body.data)
    write_bytes(out, m.threshold_sig)


def _decode_client_response(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    label, offset = read_str(data, offset)
    body, offset = read_bytes(data, offset)
    threshold_sig, offset = read_bytes(data, offset)
    return (
        ClientResponse(
            client_id=client_id,
            client_seq=client_seq,
            body=Sensitive(body, label=label),
            threshold_sig=threshold_sig,
        ),
        offset,
    )


_register(24, ClientResponse)((_encode_client_response, _decode_client_response))


def _encode_key_proposal(out, m: KeyProposal):
    write_str(out, m.alias)
    write_varint(out, m.range_start)
    write_varint(out, m.range_end)
    write_str(out, m.proposer)
    write_bytes(out, m.encrypted_seed)


def _decode_key_proposal(data, offset):
    alias, offset = read_str(data, offset)
    range_start, offset = read_varint(data, offset)
    range_end, offset = read_varint(data, offset)
    proposer, offset = read_str(data, offset)
    seed, offset = read_bytes(data, offset)
    return (
        KeyProposal(
            alias=alias,
            range_start=range_start,
            range_end=range_end,
            proposer=proposer,
            encrypted_seed=seed,
        ),
        offset,
    )


_register(25, KeyProposal)((_encode_key_proposal, _decode_key_proposal))


def _encode_checkpoint(out, m: CheckpointMsg):
    write_varint(out, m.ordinal)
    _write_resume(out, m.resume)
    _write_blob(out, m.blob)
    write_str(out, m.signer)


def _decode_checkpoint(data, offset):
    ordinal, offset = read_varint(data, offset)
    resume, offset = _read_resume(data, offset)
    blob, offset = _read_blob(data, offset)
    signer, offset = read_str(data, offset)
    return CheckpointMsg(ordinal=ordinal, resume=resume, blob=blob, signer=signer), offset


_register(26, CheckpointMsg)((_encode_checkpoint, _decode_checkpoint))

def _encode_solicit(out, m: StateXferSolicit):
    write_str(out, m.requester)
    write_varint(out, m.nonce)
    write_varint(out, m.have_seq)
    write_varint(out, m.have_ordinal)


def _decode_solicit(data, offset):
    requester, offset = read_str(data, offset)
    nonce, offset = read_varint(data, offset)
    have_seq, offset = read_varint(data, offset)
    have_ordinal, offset = read_varint(data, offset)
    return (
        StateXferSolicit(
            requester=requester, nonce=nonce, have_seq=have_seq, have_ordinal=have_ordinal
        ),
        offset,
    )


_register(27, StateXferSolicit)((_encode_solicit, _decode_solicit))


def _encode_xfer_request(out, m: XferRequest):
    write_str(out, m.requester)
    write_varint(out, m.nonce)
    write_varint(out, m.have_seq)
    write_varint(out, m.have_ordinal)


def _decode_xfer_request(data, offset):
    requester, offset = read_str(data, offset)
    nonce, offset = read_varint(data, offset)
    have_seq, offset = read_varint(data, offset)
    have_ordinal, offset = read_varint(data, offset)
    return (
        XferRequest(
            requester=requester, nonce=nonce, have_seq=have_seq, have_ordinal=have_ordinal
        ),
        offset,
    )


_register(28, XferRequest)((_encode_xfer_request, _decode_xfer_request))


def _encode_batch_record(out, m: BatchRecord):
    write_varint(out, m.batch_seq)
    _write_resume(out, m.resume)
    write_varint(out, len(m.entries))
    for ordinal, payload in m.entries:
        write_varint(out, ordinal)
        write_bytes(out, encode_message_cached(payload))


def _decode_batch_record(data, offset):
    batch_seq, offset = read_varint(data, offset)
    resume, offset = _read_resume(data, offset)
    count, offset = read_varint(data, offset)
    entries = []
    for _ in range(count):
        ordinal, offset = read_varint(data, offset)
        nested, offset = read_bytes(data, offset)
        payload, _ = decode_message(nested)
        entries.append((ordinal, payload))
    return BatchRecord(batch_seq=batch_seq, resume=resume, entries=tuple(entries)), offset


_register(29, BatchRecord)((_encode_batch_record, _decode_batch_record))


def _encode_xfer_response(out, m: StateXferResponse):
    write_str(out, m.requester)
    write_varint(out, m.nonce)
    out.append(1 if m.checkpoint is not None else 0)
    if m.checkpoint is not None:
        write_bytes(out, encode_message_cached(m.checkpoint))
    write_varint(out, len(m.batches))
    for record in m.batches:
        write_bytes(out, encode_message_cached(record))
    write_varint(out, m.view)
    write_str(out, m.responder)
    write_varint(out, m.part_index)
    write_varint(out, m.part_count)
    write_varint(out, len(m.deltas))
    for delta in m.deltas:
        write_bytes(out, encode_message_cached(delta))


def _decode_xfer_response(data, offset):
    requester, offset = read_str(data, offset)
    nonce, offset = read_varint(data, offset)
    has_checkpoint = data[offset]
    offset += 1
    checkpoint = None
    if has_checkpoint:
        nested, offset = read_bytes(data, offset)
        checkpoint, _ = decode_message(nested)
    count, offset = read_varint(data, offset)
    batches = []
    for _ in range(count):
        nested, offset = read_bytes(data, offset)
        record, _ = decode_message(nested)
        batches.append(record)
    view, offset = read_varint(data, offset)
    responder, offset = read_str(data, offset)
    part_index, offset = read_varint(data, offset)
    part_count, offset = read_varint(data, offset)
    delta_count, offset = read_varint(data, offset)
    deltas = []
    for _ in range(delta_count):
        nested, offset = read_bytes(data, offset)
        delta, _ = decode_message(nested)
        deltas.append(delta)
    return (
        StateXferResponse(
            requester=requester,
            nonce=nonce,
            checkpoint=checkpoint,
            batches=tuple(batches),
            view=view,
            responder=responder,
            part_index=part_index,
            part_count=part_count,
            deltas=tuple(deltas),
        ),
        offset,
    )


_register(30, StateXferResponse)((_encode_xfer_response, _decode_xfer_response))


def _encode_checkpoint_delta(out, m: CheckpointDeltaMsg):
    write_varint(out, m.ordinal)
    write_varint(out, m.base_ordinal)
    write_varint(out, m.full_ordinal)
    _write_resume(out, m.resume)
    _write_blob(out, m.blob)
    write_str(out, m.signer)


def _decode_checkpoint_delta(data, offset):
    ordinal, offset = read_varint(data, offset)
    base_ordinal, offset = read_varint(data, offset)
    full_ordinal, offset = read_varint(data, offset)
    resume, offset = _read_resume(data, offset)
    blob, offset = _read_blob(data, offset)
    signer, offset = read_str(data, offset)
    return (
        CheckpointDeltaMsg(
            ordinal=ordinal,
            base_ordinal=base_ordinal,
            full_ordinal=full_ordinal,
            resume=resume,
            blob=blob,
            signer=signer,
        ),
        offset,
    )


_register(40, CheckpointDeltaMsg)((_encode_checkpoint_delta, _decode_checkpoint_delta))


# -- BatchLab messages ---------------------------------------------------------


def _write_proof(out: bytearray, proof: MerkleProof) -> None:
    write_varint(out, proof.leaf_index)
    write_varint(out, len(proof.path))
    for sibling, sibling_is_right in proof.path:
        write_bytes(out, sibling)
        out.append(1 if sibling_is_right else 0)


def _read_proof(data: bytes, offset: int) -> Tuple[MerkleProof, int]:
    leaf_index, offset = read_varint(data, offset)
    count, offset = read_varint(data, offset)
    path = []
    for _ in range(count):
        sibling, offset = read_bytes(data, offset)
        sibling_is_right = bool(data[offset])
        offset += 1
        path.append((sibling, sibling_is_right))
    return MerkleProof(leaf_index=leaf_index, path=tuple(path)), offset


def _encode_batch_proposal(out, m: BatchProposal):
    write_str(out, m.proposer)
    write_varint(out, m.batch_no)
    write_varint(out, len(m.items))
    for item in m.items:
        write_bytes(out, encode_message_cached(item))


def _decode_batch_proposal(data, offset):
    proposer, offset = read_str(data, offset)
    batch_no, offset = read_varint(data, offset)
    count, offset = read_varint(data, offset)
    items = []
    for _ in range(count):
        nested, offset = read_bytes(data, offset)
        item, _ = decode_message(nested)
        items.append(item)
    return (
        BatchProposal(proposer=proposer, batch_no=batch_no, items=tuple(items)),
        offset,
    )


_register(31, BatchProposal)((_encode_batch_proposal, _decode_batch_proposal))


def _encode_batch_share(out, m: BatchShare):
    write_str(out, m.proposer)
    write_varint(out, m.batch_no)
    write_bytes(out, m.root)
    write_varint(out, m.count)
    _write_partial(out, m.partial)


def _decode_batch_share(data, offset):
    proposer, offset = read_str(data, offset)
    batch_no, offset = read_varint(data, offset)
    root, offset = read_bytes(data, offset)
    count, offset = read_varint(data, offset)
    partial, offset = _read_partial(data, offset)
    return (
        BatchShare(
            proposer=proposer, batch_no=batch_no, root=root, count=count, partial=partial
        ),
        offset,
    )


_register(32, BatchShare)((_encode_batch_share, _decode_batch_share))


def _encode_signed_batch(out, m: SignedUpdateBatch):
    write_bytes(out, m.root)
    write_varint(out, len(m.items))
    for item in m.items:
        write_bytes(out, encode_message_cached(item))
    write_bytes(out, m.threshold_sig)


def _decode_signed_batch(data, offset):
    root, offset = read_bytes(data, offset)
    count, offset = read_varint(data, offset)
    items = []
    for _ in range(count):
        nested, offset = read_bytes(data, offset)
        item, _ = decode_message(nested)
        items.append(item)
    threshold_sig, offset = read_bytes(data, offset)
    return (
        SignedUpdateBatch(root=root, items=tuple(items), threshold_sig=threshold_sig),
        offset,
    )


_register(33, SignedUpdateBatch)((_encode_signed_batch, _decode_signed_batch))


def _encode_response_batch_share(out, m: ResponseBatchShare):
    write_bytes(out, m.root)
    write_varint(out, m.count)
    _write_partial(out, m.partial)


def _decode_response_batch_share(data, offset):
    root, offset = read_bytes(data, offset)
    count, offset = read_varint(data, offset)
    partial, offset = _read_partial(data, offset)
    return ResponseBatchShare(root=root, count=count, partial=partial), offset


_register(34, ResponseBatchShare)(
    (_encode_response_batch_share, _decode_response_batch_share)
)


def _encode_certified_response(out, m: CertifiedResponse):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_str(out, m.body.label)
    write_bytes(out, m.body.data)
    write_bytes(out, m.batch_root)
    write_varint(out, m.batch_count)
    write_bytes(out, m.batch_sig)
    _write_proof(out, m.proof)


def _decode_certified_response(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    label, offset = read_str(data, offset)
    body, offset = read_bytes(data, offset)
    batch_root, offset = read_bytes(data, offset)
    batch_count, offset = read_varint(data, offset)
    batch_sig, offset = read_bytes(data, offset)
    proof, offset = _read_proof(data, offset)
    return (
        CertifiedResponse(
            client_id=client_id,
            client_seq=client_seq,
            body=Sensitive(body, label=label),
            batch_root=batch_root,
            batch_count=batch_count,
            batch_sig=batch_sig,
            proof=proof,
        ),
        offset,
    )


_register(35, CertifiedResponse)(
    (_encode_certified_response, _decode_certified_response)
)


# ---------------------------------------------------------------------------
# ShardLab (tags 36-39)
# ---------------------------------------------------------------------------


def _encode_shard_map_announce(out, m: ShardMapAnnounce):
    write_varint(out, m.seed)
    write_varint(out, m.shards)
    write_varint(out, m.version)


def _decode_shard_map_announce(data, offset):
    seed, offset = read_varint(data, offset)
    shards, offset = read_varint(data, offset)
    version, offset = read_varint(data, offset)
    return ShardMapAnnounce(seed=seed, shards=shards, version=version), offset


_register(36, ShardMapAnnounce)(
    (_encode_shard_map_announce, _decode_shard_map_announce)
)


def _encode_xshard_intent(out, m: CrossShardIntent):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_varint(out, m.home_shard)
    write_varint(out, len(m.targets))
    for target in m.targets:
        write_varint(out, target)
    _write_blob(out, m.body)


def _decode_xshard_intent(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    home_shard, offset = read_varint(data, offset)
    count, offset = read_varint(data, offset)
    targets = []
    for _ in range(count):
        target, offset = read_varint(data, offset)
        targets.append(target)
    body, offset = _read_blob(data, offset)
    return (
        CrossShardIntent(
            client_id=client_id,
            client_seq=client_seq,
            home_shard=home_shard,
            targets=tuple(targets),
            body=body,
        ),
        offset,
    )


_register(37, CrossShardIntent)((_encode_xshard_intent, _decode_xshard_intent))


def _encode_xshard_prepare(out, m: CrossShardPrepare):
    write_str(out, m.client_id)
    write_varint(out, m.client_seq)
    write_varint(out, m.home_shard)
    write_bytes(out, m.intent_digest)
    write_varint(out, m.cert_kind)
    write_bytes(out, m.cert_sig)
    write_bytes(out, m.batch_root)
    write_varint(out, m.batch_count)
    if m.proof is not None:
        out.append(1)
        _write_proof(out, m.proof)
    else:
        out.append(0)


def _decode_xshard_prepare(data, offset):
    client_id, offset = read_str(data, offset)
    client_seq, offset = read_varint(data, offset)
    home_shard, offset = read_varint(data, offset)
    intent_digest, offset = read_bytes(data, offset)
    cert_kind, offset = read_varint(data, offset)
    cert_sig, offset = read_bytes(data, offset)
    batch_root, offset = read_bytes(data, offset)
    batch_count, offset = read_varint(data, offset)
    has_proof = data[offset]
    offset += 1
    proof = None
    if has_proof:
        proof, offset = _read_proof(data, offset)
    return (
        CrossShardPrepare(
            client_id=client_id,
            client_seq=client_seq,
            home_shard=home_shard,
            intent_digest=intent_digest,
            cert_kind=cert_kind,
            cert_sig=cert_sig,
            batch_root=batch_root,
            batch_count=batch_count,
            proof=proof,
        ),
        offset,
    )


_register(38, CrossShardPrepare)((_encode_xshard_prepare, _decode_xshard_prepare))


def _encode_xshard_commit(out, m: CrossShardCommit):
    _encode_xshard_intent(out, m.intent)
    _encode_xshard_prepare(out, m.prepare)


def _decode_xshard_commit(data, offset):
    intent, offset = _decode_xshard_intent(data, offset)
    prepare, offset = _decode_xshard_prepare(data, offset)
    return CrossShardCommit(intent=intent, prepare=prepare), offset


_register(39, CrossShardCommit)((_encode_xshard_commit, _decode_xshard_commit))


def registered_types() -> List[Type]:
    """All message types this codec can carry (for coverage tests)."""
    return sorted(_ENCODERS, key=lambda t: t.__name__)
