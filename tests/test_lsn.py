"""LSN ordering/increment semantics (mirrors reference Lsn.java:133-181)."""

import numpy as np
import pytest

from debezium_connector_db2_ray.lsn import (
    Lsn,
    U64_MAX,
    lsn_from_hex,
    lsn_hex,
    lsn_increment,
    lsn_range_mask,
    position_order,
)


def test_ordering_is_unsigned_commit_major():
    assert Lsn(0, 1) < Lsn(0, 2)
    assert Lsn(0, U64_MAX) < Lsn(1, 0)
    assert Lsn(1, 0) < Lsn(1, 1)
    # high-bit values compare as unsigned (bytewise memcmp semantics)
    assert Lsn(0, 2**63) > Lsn(0, 2**63 - 1)


def test_increment_with_carry():
    assert Lsn(0, 5).increment() == Lsn(0, 6)
    assert Lsn(0, U64_MAX).increment() == Lsn(1, 0)
    with pytest.raises(OverflowError):
        Lsn(U64_MAX, U64_MAX).increment()


def test_hex_roundtrip_colon_groups():
    # colon groups after bytes 4 and 8 (Lsn.java:65-86)
    l = Lsn(0x0123456789ABCDEF, 0xFEDCBA9876543210)
    assert l.hex() == "01234567:89abcdef:fedcba9876543210"
    assert lsn_from_hex(l.hex()) == l
    assert lsn_hex(0, 0) == "00000000:00000000:0000000000000000"


def test_bytes_roundtrip():
    l = Lsn(7, 42)
    assert Lsn.from_bytes(l.to_bytes()) == l
    assert Lsn.from_int(l.to_int()) == l


def test_vectorized_increment_carry():
    hi, lo = lsn_increment(
        np.array([0, 0], np.uint64), np.array([1, U64_MAX], np.uint64)
    )
    assert hi.tolist() == [0, 1]
    assert lo.tolist() == [2, 0]


def test_position_order_commit_major():
    # rows: (commit, intent) = (2,1), (1,9), (1,2), (2,0)
    chi = np.zeros(4, np.uint64)
    clo = np.array([2, 1, 1, 2], np.uint64)
    ihi = np.zeros(4, np.uint64)
    ilo = np.array([1, 9, 2, 0], np.uint64)
    order = position_order(chi, clo, ihi, ilo)
    assert order.tolist() == [2, 1, 3, 0]


_CARRY = Lsn(3, U64_MAX)  # +1 carries into the high half


@pytest.mark.parametrize("low_inclusive", [False, True])
@pytest.mark.parametrize("high_inclusive", [True, False])
@pytest.mark.parametrize(
    "low,high",
    [
        (Lsn(5, 10), Lsn(5, 20)),  # equal hi: the lo halves decide
        (_CARRY, _CARRY.increment()),  # bounds straddle a lo carry
        (Lsn(0, 2**63), Lsn(2**63, 1)),  # high-bit values compare unsigned
        (None, _CARRY),
        (_CARRY, None),
    ],
)
def test_lsn_range_mask_matches_scalar_compare(low, high, low_inclusive, high_inclusive):
    top = (U64_MAX << 64) | U64_MAX
    pts = {0, top}
    for b in (low, high):
        if b is not None:
            pts |= {min(max(b.to_int() + d, 0), top) for d in (-1, 0, 1)}
    pts = [Lsn.from_int(v) for v in sorted(pts)]
    got = lsn_range_mask(
        np.array([p.hi for p in pts], np.uint64),
        np.array([p.lo for p in pts], np.uint64),
        low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive,
    )
    want = [
        (low is None or p > low or (low_inclusive and p == low))
        and (high is None or p < high or (high_inclusive and p == high))
        for p in pts
    ]
    assert got.tolist() == want
