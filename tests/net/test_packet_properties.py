"""Property tests for the frame format and line coding.

Hypothesis searches the packet space for any frame where serialisation
isn't a clean round trip, or where a single flipped on-air bit slips
past the framing/CRC checks — the corruption model the fault injector's
:class:`~repro.faults.injector.CorruptedFrame` relies on.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core import NodeConfig, PicoCube
from repro.errors import PacketError
from repro.net.framing import (
    POPCOUNT,
    bits_to_bytes,
    bytes_to_bits,
    line_code_counts,
    manchester_decode,
    manchester_encode,
)
from repro.net.packet import MAX_PAYLOAD_WORDS, PicoPacket

packets = st.builds(
    PicoPacket,
    node_id=st.integers(0, 0xFF),
    kind=st.integers(0, 0xFF),
    seq=st.integers(0, 0xFF),
    payload_words=st.lists(
        st.integers(0, 0xFFFF), max_size=MAX_PAYLOAD_WORDS
    ),
)


LINE_CODE_NODES = {
    code: PicoCube(NodeConfig(line_code=code)) for code in ("nrz", "manchester")
}


@given(packets, st.sampled_from(sorted(LINE_CODE_NODES)))
@settings(max_examples=200)
def test_line_code_counts_match_the_coded_bit_list(packet, line_code):
    """The fast-fidelity mark density comes from two integers read off
    the frame bytes; they are the coded bit list's sum and length."""
    bits = LINE_CODE_NODES[line_code]._line_code_bits(packet)
    marks, air_bits = line_code_counts(packet.to_bytes(), line_code)
    assert (marks, air_bits) == (sum(bits), len(bits))


def test_popcount_table_counts_set_bits():
    assert POPCOUNT == tuple(
        sum(bytes_to_bits(bytes([value]))) for value in range(256)
    )


@given(packets)
def test_packet_bits_round_trip(packet):
    decoded = PicoPacket.from_bits(packet.to_bits())
    assert decoded == packet


@given(packets)
def test_packet_bytes_round_trip(packet):
    decoded = PicoPacket.from_bytes(packet.to_bytes())
    assert decoded == packet


@given(packets, st.data())
@settings(max_examples=200)
def test_any_single_bit_flip_is_detected(packet, data):
    bits = packet.to_bits()
    index = data.draw(st.integers(0, len(bits) - 1), label="flipped bit")
    bits[index] ^= 1
    with pytest.raises(PacketError):
        PicoPacket.from_bits(bits)


@given(st.binary(max_size=64))
def test_bit_expansion_round_trip(payload):
    assert bits_to_bytes(bytes_to_bits(payload)) == payload


@given(st.lists(st.integers(0, 1), max_size=256))
def test_manchester_round_trip(bits):
    assert manchester_decode(manchester_encode(bits)) == bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=128), st.data())
def test_manchester_chip_corruption_is_detected(bits, data):
    chips = manchester_encode(bits)
    index = data.draw(st.integers(0, len(chips) - 1), label="flipped chip")
    chips[index] ^= 1
    # Flipping one chip always yields an invalid 00/11 pair.
    with pytest.raises(PacketError):
        manchester_decode(chips)
