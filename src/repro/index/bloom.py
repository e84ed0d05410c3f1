"""Bloom filters (paper, Section 5.3).

ChronicleDB attaches a Bloom filter to every LSM run / COLA level to
speed up exact-match queries — membership tests skip runs that cannot
contain the key.  Classic Bloom [15] with double hashing.

Numeric keys hash the bit pattern of ``float(key) + 0.0``: postings store
float64 values, so ``5`` and ``5.0`` must probe the same bits, and adding
``0.0`` folds ``-0.0`` onto ``0.0`` (they compare equal everywhere else).
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct

import numpy as np

from repro.errors import ConfigError

_U64 = np.uint64
#: Keys hashed per vectorised step (bounds the temporary position matrix).
_CHUNK = 1 << 16


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


class BloomFilter:
    """A fixed-size Bloom filter over hashable keys."""

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items <= 0:
            raise ConfigError("expected_items must be positive")
        if not 0.0 < false_positive_rate < 1.0:
            raise ConfigError("false_positive_rate must be in (0, 1)")
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        bits = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
        self.size = max(8, int(bits))
        self.hash_count = max(1, round(self.size / expected_items * math.log(2)))
        self._bits = bytearray((self.size + 7) // 8)
        self.item_count = 0

    def _float_positions(self, values: np.ndarray) -> np.ndarray:
        """Bit positions of float64 keys, shape ``(len(values), hash_count)``.

        The one hash of numeric keys: :meth:`add_many` feeds it a run's
        value column, the scalar path a single value.
        """
        h1 = _mix((values + 0.0).view(_U64))
        h2 = _mix(h1 + _U64(0x9E3779B97F4A7C15)) | _U64(1)
        steps = np.arange(self.hash_count, dtype=_U64)
        return (h1[:, None] + steps * h2[:, None]) % _U64(self.size)

    def _positions(self, key) -> list[int]:
        if isinstance(key, numbers.Real):
            return self._float_positions(np.array([key], dtype="<f8"))[0].tolist()
        digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        h1, h2 = struct.unpack("<QQ", digest)
        # Double hashing: h1 + i*h2 gives k independent-enough positions.
        return [(h1 + i * h2) % self.size for i in range(self.hash_count)]

    def add(self, key) -> None:
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)
        self.item_count += 1

    def add_many(self, values: np.ndarray) -> None:
        """Add every key of a float64 array in one vectorised pass."""
        flags = np.zeros(len(self._bits) * 8, dtype=bool)
        for start in range(0, len(values), _CHUNK):
            chunk = values[start : start + _CHUNK]
            flags[self._float_positions(chunk).ravel()] = True
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        bits |= np.packbits(flags, bitorder="little")
        self.item_count += len(values)

    def __contains__(self, key) -> bool:
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._positions(key)
        )

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostic)."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.size

    def to_bytes(self) -> bytes:
        header = struct.pack("<III", self.size, self.hash_count, self.item_count)
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, expected_items: int,
                   false_positive_rate: float = 0.01) -> "BloomFilter":
        size, hash_count, item_count = struct.unpack_from("<III", data)
        bloom = cls(expected_items, false_positive_rate)
        bloom.size = size
        bloom.hash_count = hash_count
        bloom.item_count = item_count
        bloom._bits = bytearray(data[12 : 12 + (size + 7) // 8])
        return bloom
