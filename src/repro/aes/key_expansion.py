"""AES key expansion (FIPS-197 Sec 5.2).

Expands a 128/192/256-bit cipher key into ``Nb * (Nr + 1)`` 32-bit words,
returned as a list of 16-byte round keys.  In the paper's partitioning,
key expansion belongs to Module 3 (KeyExpansion / AddRoundKey); each
module-3 node holds the full schedule, so expansion happens once per key
and its cost is folded into the measured E3 energy.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import xtime
from .sbox import SBOX
from .state import BLOCK_BYTES, NB

#: Supported key lengths in bytes, mapped to (Nk, Nr).
KEY_SCHEDULES: dict[int, tuple[int, int]] = {
    16: (4, 10),   # AES-128
    24: (6, 12),   # AES-192
    32: (8, 14),   # AES-256
}


def rounds_for_key(key: bytes) -> int:
    """Number of cipher rounds ``Nr`` for a key of the given length."""
    try:
        return KEY_SCHEDULES[len(key)][1]
    except KeyError:
        raise ValueError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        ) from None


def _rcon(i: int) -> int:
    """Round constant word value ``x^(i-1)`` in GF(2^8)."""
    value = 1
    for _ in range(i - 1):
        value = xtime(value)
    return value


def _sub_word(word: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return tuple(SBOX[b] for b in word)  # type: ignore[return-value]


def _rot_word(word: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return word[1], word[2], word[3], word[0]


def expand_key_words(key: bytes) -> list[tuple[int, int, int, int]]:
    """Expand ``key`` into the FIPS-197 word schedule ``w[0..Nb*(Nr+1)-1]``."""
    if len(key) not in KEY_SCHEDULES:
        raise ValueError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        )
    nk, nr = KEY_SCHEDULES[len(key)]
    words: list[tuple[int, int, int, int]] = [
        tuple(key[4 * i : 4 * i + 4]) for i in range(nk)  # type: ignore[misc]
    ]
    for i in range(nk, NB * (nr + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp))
            temp = (temp[0] ^ _rcon(i // nk), temp[1], temp[2], temp[3])
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        prev = words[i - nk]
        words.append(tuple(p ^ t for p, t in zip(prev, temp)))  # type: ignore[arg-type]
    return words


@lru_cache(maxsize=32)
def round_keys(key: bytes) -> tuple[bytes, ...]:
    """Return the ``Nr + 1`` round keys as 16-byte blocks.

    Round key ``r`` is the concatenation of words ``w[4r .. 4r+3]``; the
    byte order matches the column-major state layout, so
    :func:`repro.aes.transforms.add_round_key` can XOR it directly.

    Memoised per key (which must therefore be hashable ``bytes``): the
    simulator encrypts every job's reference block under one key, and
    the schedule is an immutable tuple, so one expansion is shared by
    the cipher and every dataflow under that key.
    """
    words = expand_key_words(key)
    nr = rounds_for_key(key)
    keys = []
    for r in range(nr + 1):
        chunk = bytearray()
        for w in words[NB * r : NB * (r + 1)]:
            chunk.extend(w)
        if len(chunk) != BLOCK_BYTES:
            raise AssertionError("round key construction produced a bad block")
        keys.append(bytes(chunk))
    return tuple(keys)
