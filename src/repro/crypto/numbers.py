"""Number-theoretic building blocks for the RSA and threshold-RSA layers.

Everything here is deterministic given an explicit ``random.Random`` source,
so key generation inside a simulation is reproducible from the run seed.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

# Small primes used to pre-screen candidates before Miller-Rabin. Trial
# division by these removes ~90% of composites at negligible cost.
_SMALL_PRIMES: Tuple[int, ...] = tuple(
    p
    for p in range(3, 2000)
    if all(p % q for q in range(2, int(p ** 0.5) + 1))
)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y == g == gcd(a, b).

    Only for callers that need the Bezout coefficients themselves; a plain
    modular inverse is :func:`modinv`.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``; raises ValueError if none exists."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} has no inverse modulo {m}") from None


def is_probable_prime(n: int, rng: Optional[random.Random] = None, rounds: int = 32) -> bool:
    """Miller-Rabin primality test.

    With 32 random bases the error probability is below 2**-64, far beyond
    what a simulation needs. Deterministic for fixed ``rng`` state.
    """
    if n < 2:
        return False
    for p in (2,) + _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 as d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = rng or random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def generate_safe_prime(bits: int, rng: random.Random) -> int:
    """Generate a safe prime p = 2q + 1 with ``bits`` bits (q also prime).

    Safe primes are required by the Shoup threshold-RSA construction. We
    search by drawing a random Sophie Germain candidate q and testing both
    q and 2q+1, pre-screening both against small primes simultaneously so
    most candidates are rejected without a Miller-Rabin call.
    """
    if bits < 16:
        raise ValueError("safe prime size must be at least 16 bits")
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        # Joint small-prime screen: p % s == 0 iff q % s == (s - 1) // 2.
        ok = True
        for s in _SMALL_PRIMES:
            if q % s == 0 or p % s == 0:
                ok = q == s or p == s
                if not ok:
                    break
        if not ok:
            continue
        if is_probable_prime(q, rng, rounds=16) and is_probable_prime(p, rng, rounds=16):
            return p


def crt_combine(r_p: int, p: int, r_q: int, q: int) -> int:
    """Chinese-remainder combination of residues mod two coprime moduli."""
    q_inv = modinv(q, p)
    h = (q_inv * (r_p - r_q)) % p
    return (r_q + h * q) % (p * q)


def int_to_bytes(n: int, length: Optional[int] = None) -> bytes:
    """Big-endian byte encoding; sized to fit if ``length`` is omitted."""
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian byte decoding."""
    return int.from_bytes(data, "big")
