from hypothesis import given
from hypothesis import strategies as st

from didom import bitset


def test_roundtrip_small():
    assert bitset.to_list(bitset.from_iter([5, 1, 3])) == [1, 3, 5]
    assert bitset.full(3) == 0b111


def test_to_list_edge_cases():
    assert bitset.to_list(0) == []
    assert bitset.to_list(1 << 5) == [5]
    assert bitset.to_list(1 << 70) == [70]
    assert bitset.to_list(1 << 70 | 1 << 64 | 0b1010) == [1, 3, 64, 70]


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_roundtrip_property(members):
    mask = bitset.from_iter(members)
    assert bitset.to_list(mask) == sorted(members)
