"""Tests for deterministic HMAC-IV encryption (Section VI-B)."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import symmetric
from repro.crypto.symmetric import SymmetricKeyPair, derive_keypair
from repro.errors import CryptoError, DecryptionError


@pytest.fixture(scope="module")
def keys():
    return derive_keypair(b"test-seed")


@contextmanager
def memos(enabled):
    previous = symmetric.set_cipher_cache_enabled(enabled)
    try:
        yield
    finally:
        symmetric.set_cipher_cache_enabled(previous)


# The cipher's own properties are checked with the memos on and off, so
# they exercise the cipher and not just the memo.
BOTH = (True, False)


@pytest.fixture
def empty_memo():
    """The memos on and empty (toggling off clears them)."""
    with memos(False), memos(True):
        yield symmetric._RESULT_CACHE


def test_derive_keypair_is_deterministic():
    assert derive_keypair(b"s") == derive_keypair(b"s")
    assert derive_keypair(b"s") != derive_keypair(b"t")


def test_keys_must_be_32_bytes():
    with pytest.raises(CryptoError):
        SymmetricKeyPair(enc_key=b"short", prf_key=b"y" * 32)


def test_encryption_is_deterministic(keys):
    # The property the whole introduction protocol rests on: every
    # on-premises replica independently produces the identical blob.
    for enabled in BOTH:
        with memos(enabled):
            blob_a = symmetric.encrypt(keys, b"update body 1")
            blob_b = symmetric.encrypt(keys, b"update body 1")
        assert blob_a == blob_b


def test_different_plaintexts_different_blobs(keys):
    for enabled in BOTH:
        with memos(enabled):
            assert symmetric.encrypt(keys, b"a") != symmetric.encrypt(keys, b"b")


def test_roundtrip(keys):
    for enabled in BOTH:
        with memos(enabled):
            blob = symmetric.encrypt(keys, b"hello")
            assert symmetric.decrypt(keys, blob) == b"hello"


@given(st.binary(max_size=500))
@settings(max_examples=50)
def test_roundtrip_property(data):
    keys = derive_keypair(b"prop")
    for enabled in BOTH:
        with memos(enabled):
            assert symmetric.decrypt(keys, symmetric.encrypt(keys, data)) == data


def test_wrong_key_rejected(keys):
    blob = symmetric.encrypt(keys, b"hello")
    with pytest.raises(DecryptionError):
        symmetric.decrypt(derive_keypair(b"other"), blob)


def test_tampered_blob_rejected(keys):
    blob = bytearray(symmetric.encrypt(keys, b"hello there, a longer message"))
    blob[20] ^= 0x01
    with pytest.raises(DecryptionError):
        symmetric.decrypt(keys, bytes(blob))


def test_tampered_iv_rejected(keys):
    blob = bytearray(symmetric.encrypt(keys, b"hello"))
    blob[0] ^= 0x01
    with pytest.raises(DecryptionError):
        symmetric.decrypt(keys, bytes(blob))


def test_short_blob_rejected(keys):
    with pytest.raises(DecryptionError):
        symmetric.decrypt(keys, b"x" * 16)


def test_iv_commits_to_plaintext(keys):
    iv = symmetric.deterministic_iv(keys, b"payload")
    assert len(iv) == 16
    assert iv != symmetric.deterministic_iv(keys, b"payload2")
    # Different PRF key => different IV for the same plaintext.
    other = derive_keypair(b"other-prf")
    assert iv != symmetric.deterministic_iv(other, b"payload")


def test_fingerprint_is_stable_and_short(keys):
    assert keys.fingerprint() == keys.fingerprint()
    assert len(keys.fingerprint()) == 12


# -- the result memo ---------------------------------------------------------


def test_memo_serves_repeated_operations(keys, empty_memo):
    plaintext = b"one update, encrypted by every on-premises replica"
    blob = symmetric.encrypt(keys, plaintext)
    assert symmetric.encrypt(keys, plaintext) is blob
    first = symmetric.decrypt(keys, blob)
    assert first == plaintext
    assert symmetric.decrypt(keys, blob) is first


def test_tampered_blob_rejected_after_good_blob_decrypted(keys, empty_memo):
    blob = symmetric.encrypt(keys, b"a checkpoint-sized message " * 8)
    assert symmetric.decrypt(keys, blob) == b"a checkpoint-sized message " * 8
    tampered = bytearray(blob)
    tampered[40] ^= 0x01
    with pytest.raises(DecryptionError):
        symmetric.decrypt(keys, bytes(tampered))


def test_failed_decrypt_is_never_memoized(keys, empty_memo):
    blob = symmetric.encrypt(keys, b"for the right key only")
    wrong = derive_keypair(b"wrong")
    for _ in range(3):
        with pytest.raises(DecryptionError):
            symmetric.decrypt(wrong, blob)
    assert len(empty_memo) == 1  # only the encryption
    assert symmetric.decrypt(keys, blob) == b"for the right key only"


def test_memo_is_keyed_on_the_whole_key_pair(keys, empty_memo):
    # Same encryption key, different PRF key: never served the other
    # pair's memoized blob or plaintext.
    other = SymmetricKeyPair(enc_key=keys.enc_key, prf_key=b"p" * 32)
    plaintext = b"same plaintext, same enc key"
    blob = symmetric.encrypt(keys, plaintext)
    assert symmetric.encrypt(other, plaintext) != blob
    assert symmetric.decrypt(keys, blob) == plaintext
    with pytest.raises(DecryptionError):
        symmetric.decrypt(other, blob)


def test_disabling_the_toggle_disables_and_clears_the_memo(keys, empty_memo):
    blob = symmetric.encrypt(keys, b"memoized")
    assert len(empty_memo) == 1
    symmetric.set_cipher_cache_enabled(False)
    assert len(empty_memo) == 0
    again = symmetric.encrypt(keys, b"memoized")
    assert again == blob and again is not blob
    assert symmetric.decrypt(keys, blob) == b"memoized"
    assert len(empty_memo) == 0


def test_memo_stays_within_its_bound(keys, empty_memo):
    bound = empty_memo.capacity
    for i in range(3 * bound):
        blob = symmetric.encrypt(keys, b"update %d" % i)
        symmetric.decrypt(keys, blob)
        assert len(empty_memo) <= bound
    assert len(empty_memo) == bound


def test_non_bytes_inputs_bypass_the_memo(keys, empty_memo):
    plaintext = bytearray(b"mutable")
    blob = symmetric.encrypt(keys, plaintext)
    assert symmetric.decrypt(keys, bytearray(blob)) == b"mutable"
    assert len(empty_memo) == 0
    plaintext[0] ^= 0x01
    assert symmetric.encrypt(keys, plaintext) != blob
