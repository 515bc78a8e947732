"""LSN (log sequence number) arithmetic.

The reference models an LSN as a 16-byte opaque binary compared
bytewise-unsigned, with NULL sorting lowest, a colon-grouped hex string form,
and increment = +1 as a 128-bit big-endian integer
(reference: Lsn.java:21-48 binary repr, :65-86 string form, :133-156 unsigned
lexicographic compareTo, :173-181 increment).

For vectorized Arrow/numpy compute we store an LSN as TWO uint64 columns
``(hi, lo)`` — big-endian halves of the 16-byte value — so comparison is a
2-column lexicographic sort key and increment is lo+1 with carry. A transaction
position is the pair (commit_lsn, intent_lsn) — total order is commit-major
(reference: TxLogPosition.java:10-17,83-87) — i.e. a 4-column sort key
``LSN_COLUMNS``.

NULL handling: the reference treats NULL as lowest (Lsn.java:133-140) and
*skips* NULL-LSN change rows with an error log
(Db2StreamingChangeEventSource.java:203-207); we do the same in decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

import numpy as np

U64_MAX = 0xFFFF_FFFF_FFFF_FFFF

#: canonical sort-key column order for a transaction-log position
LSN_COLUMNS = ("commit_lsn_hi", "commit_lsn_lo", "intent_lsn_hi", "intent_lsn_lo")


@total_ordering
@dataclass(frozen=True)
class Lsn:
    """A single LSN as (hi, lo) uint64 halves. Driver-side / manifest use only
    — bulk data keeps LSNs as columns, never as Python objects."""

    hi: int = 0
    lo: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.hi <= U64_MAX and 0 <= self.lo <= U64_MAX):
            raise ValueError(f"LSN halves out of uint64 range: {self.hi}, {self.lo}")

    def __lt__(self, other: "Lsn") -> bool:
        return (self.hi, self.lo) < (other.hi, other.lo)

    def increment(self) -> "Lsn":
        """+1 as a 128-bit integer (reference: Lsn.java:173-181)."""
        if self.lo == U64_MAX:
            if self.hi == U64_MAX:
                raise OverflowError("LSN increment overflow")
            return Lsn(self.hi + 1, 0)
        return Lsn(self.hi, self.lo + 1)

    def to_bytes(self) -> bytes:
        return self.hi.to_bytes(8, "big") + self.lo.to_bytes(8, "big")

    @classmethod
    def from_bytes(cls, b: bytes) -> "Lsn":
        if len(b) != 16:
            raise ValueError(f"LSN must be 16 bytes, got {len(b)}")
        return cls(int.from_bytes(b[:8], "big"), int.from_bytes(b[8:], "big"))

    @classmethod
    def from_int(cls, v: int) -> "Lsn":
        return cls((v >> 64) & U64_MAX, v & U64_MAX)

    def to_int(self) -> int:
        return (self.hi << 64) | self.lo

    def hex(self) -> str:
        return lsn_hex(self.hi, self.lo)


ZERO = Lsn(0, 0)


def lsn_hex(hi: int, lo: int) -> str:
    """Colon-grouped hex string — groups after bytes 4 and 8 of the 16-byte
    value (reference: Lsn.java:65-86): ``xxxxxxxx:xxxxxxxx:xxxxxxxxxxxxxxxx``.
    """
    b = hi.to_bytes(8, "big") + lo.to_bytes(8, "big")
    h = b.hex()
    return f"{h[0:8]}:{h[8:16]}:{h[16:32]}"


def lsn_from_hex(s: str) -> Lsn:
    return Lsn.from_bytes(bytes.fromhex(s.replace(":", "")))


def lsn_hex_array(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Vectorized colon-grouped hex form over (hi, lo) uint64 arrays — one
    big-endian byte view + one hexlify pass, no per-row formatting loop."""
    hi = np.ascontiguousarray(np.asarray(hi, dtype=np.uint64), dtype=">u8")
    lo = np.ascontiguousarray(np.asarray(lo, dtype=np.uint64), dtype=">u8")
    n = len(hi)
    if n == 0:
        return np.array([], dtype=object)
    raw = np.empty((n, 16), dtype=np.uint8)
    raw[:, :8] = hi.view(np.uint8).reshape(n, 8)
    raw[:, 8:] = lo.view(np.uint8).reshape(n, 8)
    import binascii

    h = binascii.hexlify(raw.tobytes()).decode()
    return np.array(
        [h[i : i + 8] + ":" + h[i + 8 : i + 16] + ":" + h[i + 16 : i + 32]
         for i in range(0, 32 * n, 32)],
        dtype=object,
    )


def lsn_increment(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized +1 with carry over (hi, lo) uint64 arrays."""
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    carry = lo == np.uint64(U64_MAX)
    new_lo = np.where(carry, np.uint64(0), lo + np.uint64(1))
    new_hi = np.where(carry, hi + np.uint64(1), hi)
    return new_hi.astype(np.uint64), new_lo.astype(np.uint64)


def lsn_range_mask(
    hi: np.ndarray,
    lo: np.ndarray,
    low: Lsn | None = None,
    high: Lsn | None = None,
    *,
    low_inclusive: bool = False,
    high_inclusive: bool = True,
) -> np.ndarray:
    """Vectorized ``low < (hi, lo) <= high`` over (hi, lo) uint64 arrays — the
    window convention (exclusive, inclusive]. Either bound may be None
    (unbounded) and either end's inclusivity flipped. The one place the
    lexicographic two-half compare is written out."""
    hi = np.asarray(hi)
    lo = np.asarray(lo)
    mask = np.ones(len(hi), dtype=bool)
    if low is not None:
        lo_ok = (lo >= low.lo) if low_inclusive else (lo > low.lo)
        mask &= (hi > low.hi) | ((hi == low.hi) & lo_ok)
    if high is not None:
        lo_ok = (lo <= high.lo) if high_inclusive else (lo < high.lo)
        mask &= (hi < high.hi) | ((hi == high.hi) & lo_ok)
    return mask


def position_order(
    commit_hi: np.ndarray,
    commit_lo: np.ndarray,
    intent_hi: np.ndarray,
    intent_lo: np.ndarray,
) -> np.ndarray:
    """Indices that sort rows by transaction-log position (commit-major, then
    intent — reference TxLogPosition.java:83-87). Stable, vectorized."""
    return np.lexsort(
        (
            np.asarray(intent_lo, dtype=np.uint64),
            np.asarray(intent_hi, dtype=np.uint64),
            np.asarray(commit_lo, dtype=np.uint64),
            np.asarray(commit_hi, dtype=np.uint64),
        )
    )
