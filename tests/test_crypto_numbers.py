"""Tests for the number-theory primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numbers import (
    bytes_to_int,
    crt_combine,
    egcd,
    generate_prime,
    generate_safe_prime,
    int_to_bytes,
    is_probable_prime,
    modinv,
)


KNOWN_PRIMES = [2, 3, 5, 7, 101, 104729, 2 ** 31 - 1]
KNOWN_COMPOSITES = [1, 4, 100, 104730, 2 ** 31, 561, 41041]  # incl. Carmichael


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes_accepted(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("c", KNOWN_COMPOSITES)
def test_known_composites_rejected(c):
    assert not is_probable_prime(c)


def test_generate_prime_has_exact_bits():
    rng = random.Random(1)
    for bits in (64, 128, 256):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_generate_prime_too_small_raises():
    with pytest.raises(ValueError):
        generate_prime(4, random.Random(1))


def test_safe_prime_structure():
    rng = random.Random(2)
    p = generate_safe_prime(96, rng)
    assert is_probable_prime(p)
    assert is_probable_prime((p - 1) // 2)


def test_egcd_identity():
    g, x, y = egcd(240, 46)
    assert g == 2
    assert 240 * x + 46 * y == g


@given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))
@settings(max_examples=50)
def test_egcd_bezout_property(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


def test_modinv_roundtrip():
    m = 104729
    for a in (2, 3, 999, 104728):
        assert (a * modinv(a, m)) % m == 1


def test_modinv_noninvertible_raises():
    with pytest.raises(ValueError):
        modinv(6, 9)


def _egcd_modinv(a, m):
    """The extended-Euclid inverse ``modinv`` used to compute."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return x % m


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
@settings(max_examples=300)
def test_modinv_matches_extended_euclid(a, m):
    try:
        expected = _egcd_modinv(a, m)
    except ValueError:
        assert math.gcd(a, m) != 1
        with pytest.raises(ValueError):
            modinv(a, m)
        return
    assert modinv(a, m) == expected


@pytest.mark.parametrize("a", [-7, -1, 0, 1, 12345])
def test_modinv_modulo_one_is_zero(a):
    assert modinv(a, 1) == _egcd_modinv(a, 1) == 0


@given(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
@settings(max_examples=100)
def test_modinv_raises_when_not_coprime(factor, m, k):
    # k*factor and m*factor share the factor, so no inverse exists.
    with pytest.raises(ValueError):
        modinv(k * factor, m * factor)


def test_crt_combine():
    p, q = 17, 19
    x = 123
    assert crt_combine(x % p, p, x % q, q) == x


@given(st.integers(0, 2 ** 64 - 1))
@settings(max_examples=100)
def test_int_bytes_roundtrip(n):
    assert bytes_to_int(int_to_bytes(n)) == n


def test_int_to_bytes_fixed_length():
    assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"
    assert len(int_to_bytes(0)) == 1
