"""Framing codec and stream splitter.

The CRC oracle here is deliberately a second implementation (table-driven,
vs the package's bitwise loop) anchored by the classic "123456789" check
value, so a shared mistake can't hide.
"""

import dataclasses
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respsim import protocol
from respsim.firmware import FirmwareEmulator, encode_session
from respsim.protocol import (
    _HELD,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    AccelBatchPayload,
    BadCrc,
    BadLength,
    BadMagic,
    BadVersion,
    BatteryStatusPayload,
    FLAG_CHARGING,
    FLAG_FINAL_FLUSH,
    FrameKind,
    FrameTable,
    FsrBatchPayload,
    OversizeFrame,
    ProtocolError,
    StreamSplitter,
    TelemetryFrame,
    Truncated,
    UnknownKind,
    _parse,
    _scan,
    crc8,
    decode,
    encode,
    split_stream,
)
from tests.test_firmware import ConstantStimulus, run_on_grid


def crc8_oracle(data: bytes) -> int:
    # deliberately bit-at-a-time, structured differently from the
    # table-driven production routine it cross-checks
    crc = 0
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def random_frame(rng: random.Random) -> TelemetryFrame:
    kind = rng.choice(list(FrameKind))
    seq = rng.randrange(0, 0x10000)
    flags = rng.choice([0, FLAG_FINAL_FLUSH, FLAG_CHARGING, FLAG_FINAL_FLUSH | FLAG_CHARGING])
    t = rng.randrange(0, 2**32)
    if kind == FrameKind.FSR_BATCH:
        n = rng.randrange(1, 120)
        payload = FsrBatchPayload(t, tuple(rng.randrange(0, 4096) for _ in range(n)))
    elif kind == FrameKind.ACCEL_BATCH:
        n = rng.randrange(1, 40)
        payload = AccelBatchPayload(
            t,
            tuple(
                (rng.randrange(-2000, 2001), rng.randrange(-2000, 2001), rng.randrange(-2000, 2001))
                for _ in range(n)
            ),
        )
    else:
        payload = BatteryStatusPayload(t, rng.randrange(0, 4096), rng.randrange(0, 101))
    return TelemetryFrame(kind, seq, flags, payload)


# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------

def test_crc8_known_check_value():
    # the canonical check string for poly 0x07 / init 0x00
    assert crc8(b"123456789") == 0xF4


def test_crc8_empty_and_single():
    assert crc8(b"") == 0x00
    assert crc8(b"\x00") == 0x00
    assert crc8(b"\x01") == 0x07


def test_crc8_matches_table_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert crc8(data) == crc8_oracle(data)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_battery_frame_layout():
    frame = TelemetryFrame(
        FrameKind.BATTERY_STATUS, 0, 0, BatteryStatusPayload(2000, 3822, 100)
    )
    raw = encode(frame)
    assert len(raw) == 15                      # 7 header + 7 payload + crc
    assert raw[0] == 0xA5
    assert raw[1] == 0x01
    assert raw[2] == 0x03
    assert raw[3:5] == b"\x00\x00"             # seq 0 little-endian
    assert raw[5] == 0x00                      # flags
    assert raw[6] == 7                         # payload length
    assert raw[7:11] == (2000).to_bytes(4, "little")
    assert raw[11:13] == (3822).to_bytes(2, "little")
    assert raw[13] == 100
    assert raw[14] == crc8_oracle(raw[1:14])


def test_encode_minimal_fsr_batch_len_byte():
    frame = TelemetryFrame(FrameKind.FSR_BATCH, 5, 0, FsrBatchPayload(0, (123,)))
    raw = encode(frame)
    assert raw[6] == 7                         # 4 t0 + 1 count + 2 code
    assert len(raw) == 15


def test_encode_always_starts_with_magic():
    rng = random.Random(7)
    for _ in range(100):
        assert encode(random_frame(rng))[0] == MAGIC


def test_encode_rejects_oversize_payload():
    # 120 codes -> 245-byte payload, one past the MTU budget
    payload = FsrBatchPayload(0, tuple(range(120)))
    assert len(payload.to_bytes()) == MAX_PAYLOAD + 1
    with pytest.raises(OversizeFrame):
        encode(TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, payload))


def test_payload_validation():
    # frames and payloads are plain records: encode is where a bad one is refused
    battery = BatteryStatusPayload(0, 0, 0)
    bad = [
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, ())),
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (4096,))),
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (1.9,))),
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (1,) * 256)),
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(2**32, (1,))),
        TelemetryFrame(FrameKind.ACCEL_BATCH, 0, 0, AccelBatchPayload(0, ())),
        TelemetryFrame(FrameKind.ACCEL_BATCH, 0, 0, AccelBatchPayload(0, ((1, 2), (3, 4, 5, 6)))),
        TelemetryFrame(FrameKind.ACCEL_BATCH, 0, 0, AccelBatchPayload(0, ((40000, 0, 0),))),
        TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0, BatteryStatusPayload(0, 5000, 50)),
        TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0, BatteryStatusPayload(0, 100, 101)),
        TelemetryFrame(FrameKind.BATTERY_STATUS, 0x10000, 0, battery),
        TelemetryFrame(FrameKind.BATTERY_STATUS, 1.5, 0, battery),
        TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0x100, battery),
        TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, battery),
    ]
    for frame in bad:
        with pytest.raises(BadLength):
            encode(frame)
    with pytest.raises(UnknownKind):
        encode(TelemetryFrame(0x7F, 0, 0, battery))


_bad_numbers = st.integers(-2**40, 2**40) | st.floats()


@st.composite
def any_frames(draw) -> TelemetryFrame:
    """Frames from arbitrary field values: each field is one time in ten out
    of its range or a float, the kind one time in ten unknown, and the
    payload one time in ten of another type."""
    def rarely():
        return draw(st.integers(0, 9)) == 0

    def field(lo, hi):
        return draw(_bad_numbers if rarely() else st.integers(lo, hi))

    def samples(good):
        n = draw(st.integers(0, 40) | st.integers(0, 300))
        items = draw(st.lists(good, min_size=n, max_size=n))
        if items and rarely():
            items[draw(st.integers(0, n - 1))] = draw(
                _bad_numbers | st.lists(st.integers(-2000, 2000), min_size=2, max_size=4)
                .map(tuple))
        return tuple(items)

    kinds = st.sampled_from(list(FrameKind))
    kind = draw(st.integers(-1, 256) if rarely() else kinds)
    payload_kind = draw(kinds) if rarely() else kind
    if payload_kind == FrameKind.FSR_BATCH:
        payload = FsrBatchPayload(field(0, 2**32 - 1), samples(st.integers(0, 0xFFF)))
    elif payload_kind == FrameKind.ACCEL_BATCH:
        axis = st.integers(-0x8000, 0x7FFF)
        payload = AccelBatchPayload(field(0, 2**32 - 1), samples(st.tuples(axis, axis, axis)))
    elif payload_kind == FrameKind.BATTERY_STATUS:
        payload = BatteryStatusPayload(field(0, 2**32 - 1), field(0, 0xFFF), field(0, 100))
    else:
        payload = None
    return TelemetryFrame(kind, field(0, 0xFFFF), field(0, 0xFF), payload)


def _as_decoded(frame: TelemetryFrame) -> TelemetryFrame:
    """The frame with the types decode gives its fields."""
    payload = frame.payload
    if isinstance(payload, FsrBatchPayload):
        payload = FsrBatchPayload(payload.t0_ms, tuple(payload.codes))
    elif isinstance(payload, AccelBatchPayload):
        payload = AccelBatchPayload(payload.t0_ms, tuple(map(tuple, payload.samples)))
    return TelemetryFrame(FrameKind(frame.kind), frame.seq, frame.flags, payload)


@settings(max_examples=200, deadline=None)
@given(any_frames())
def test_encode_refuses_with_a_protocol_error_or_round_trips(frame):
    try:
        data = encode(frame)
    except ProtocolError:
        return
    assert decode(data) == _as_decoded(frame)
    assert encode(decode(data)) == data


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_round_trip_random_frames():
    rng = random.Random(99)
    for _ in range(500):
        frame = random_frame(rng)
        assert decode(encode(frame)) == frame


def test_decode_flags_surface_as_properties():
    frame = TelemetryFrame(
        FrameKind.BATTERY_STATUS, 1, FLAG_CHARGING, BatteryStatusPayload(0, 100, 10)
    )
    back = decode(encode(frame))
    assert back.charging is True
    assert back.final_flush is False


def test_decode_bad_magic():
    raw = bytearray(encode(TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0,
                                          BatteryStatusPayload(0, 0, 0))))
    raw[0] = 0x5A
    with pytest.raises(BadMagic):
        decode(bytes(raw))


def test_decode_bad_version():
    raw = bytearray(encode(TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0,
                                          BatteryStatusPayload(0, 0, 0))))
    raw[1] = 0x02
    with pytest.raises(BadVersion):
        decode(bytes(raw))


def test_decode_unknown_kind_needs_valid_crc():
    # handcraft a CRC-valid frame with an unassigned kind byte
    body = bytes([VERSION, 0x7F]) + (0).to_bytes(2, "little") + bytes([0, 3]) + b"abc"
    raw = bytes([MAGIC]) + body + bytes([crc8_oracle(body)])
    with pytest.raises(UnknownKind):
        decode(raw)


def test_decode_truncated():
    raw = encode(TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (1, 2, 3))))
    with pytest.raises(Truncated):
        decode(raw[:-1])
    with pytest.raises(Truncated):
        decode(raw[:5])
    with pytest.raises(Truncated):
        decode(b"")


def test_decode_trailing_bytes_rejected():
    raw = encode(TelemetryFrame(FrameKind.BATTERY_STATUS, 0, 0, BatteryStatusPayload(0, 0, 0)))
    with pytest.raises(BadLength):
        decode(raw + b"\x00")


def test_decode_rejects_payload_bit_flips_as_bad_crc():
    rng = random.Random(17)
    frame = random_frame(rng)
    raw = encode(frame)
    payload_len = raw[6]
    for byte_idx in range(7, 7 + payload_len):
        for bit in range(8):
            corrupted = bytearray(raw)
            corrupted[byte_idx] ^= 1 << bit
            with pytest.raises(BadCrc):
                decode(bytes(corrupted))


def test_decode_rejects_any_single_bit_flip():
    rng = random.Random(23)
    for _ in range(20):
        raw = encode(random_frame(rng))
        for byte_idx in range(len(raw)):
            for bit in range(8):
                corrupted = bytearray(raw)
                corrupted[byte_idx] ^= 1 << bit
                with pytest.raises(ProtocolError):
                    decode(bytes(corrupted))


# ---------------------------------------------------------------------------
# decode against an independent reference decode
# ---------------------------------------------------------------------------

def reference_decode(data: bytes) -> TelemetryFrame:
    """decode written out from the wire format, applying every rule itself."""
    if len(data) < 8:
        raise Truncated("short")
    magic, version, kind_byte, seq, flags, length = struct.unpack_from("<BBBHBB", data)
    if magic != MAGIC:
        raise BadMagic("magic")
    if version != VERSION:
        raise BadVersion("version")
    total = 8 + length
    if len(data) < total:
        raise Truncated("short")
    if len(data) > total:
        raise BadLength("trailing")
    if data[total - 1] != crc8_oracle(data[1:total - 1]):
        raise BadCrc("crc")
    try:
        kind = FrameKind(kind_byte)
    except ValueError:
        raise UnknownKind("kind") from None
    raw = data[7:total - 1]
    if kind == FrameKind.BATTERY_STATUS:
        if len(raw) != 7:
            raise BadLength("battery length")
        t_ms, code, percent = struct.unpack("<IHB", raw)
        if code > 0xFFF or percent > 100:
            raise BadLength("battery value")
        payload = BatteryStatusPayload(t_ms, code, percent)
    else:
        width = 2 if kind == FrameKind.FSR_BATCH else 6
        if len(raw) < 5:
            raise BadLength("short batch")
        t0, count = struct.unpack_from("<IB", raw)
        if len(raw) != 5 + width * count:
            raise BadLength("batch length")
        if count == 0:
            raise BadLength("empty batch")
        if kind == FrameKind.FSR_BATCH:
            codes = struct.unpack_from(f"<{count}H", raw, 5)
            if any(code > 0xFFF for code in codes):
                raise BadLength("code past 12 bits")
            payload = FsrBatchPayload(t0, codes)
        else:
            flat = struct.unpack_from(f"<{3 * count}h", raw, 5)
            payload = AccelBatchPayload(
                t0, tuple((flat[i], flat[i + 1], flat[i + 2]) for i in range(0, len(flat), 3))
            )
    return TelemetryFrame(kind, seq, flags, payload)


def crc_valid_frame(kind_byte: int, payload: bytes, seq: int = 0, flags: int = 0) -> bytes:
    body = struct.pack("<BBHBB", VERSION, kind_byte, seq, flags, len(payload)) + payload
    return bytes([MAGIC]) + body + bytes([crc8_oracle(body)])


def outcome(decoder, data: bytes):
    """The decoded frame, or the class of the ProtocolError raised."""
    try:
        return decoder(data)
    except ProtocolError as e:
        return type(e)


def _batch(code: str, per_sample: int, values: st.SearchStrategy) -> st.SearchStrategy:
    """Batch payload bytes: t0, a count byte that usually matches, the values."""
    return st.builds(
        lambda t0, values, count: struct.pack(
            f"<IB{len(values)}{code}", t0,
            len(values) // per_sample if count is None else count, *values),
        st.integers(0, 2**32 - 1), values, st.none() | st.integers(0, 255),
    )


_fsr_payloads = st.one_of(
    _batch("H", 1, st.lists(st.integers(0, 0xFFF), max_size=120)),
    # codes over the whole u16 range
    _batch("H", 1, st.lists(st.integers(0, 0xFFFF) | st.just(0x1000), max_size=120)),
)
# axes over the whole i16 range
_accel_payloads = _batch(
    "h", 3, st.lists(st.tuples(*[st.integers(-0x8000, 0x7FFF)] * 3), max_size=41)
    .map(lambda samples: [axis for sample in samples for axis in sample]))
_battery_payloads = st.builds(
    lambda t, code, pct: struct.pack("<IHB", t, code, pct),
    st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF), st.integers(0, 255))
# (kind byte, payload bytes): mostly the payload's own kind, sometimes any byte
_kinds_and_payloads = st.one_of(
    st.tuples(st.just(int(FrameKind.FSR_BATCH)), _fsr_payloads),
    st.tuples(st.just(int(FrameKind.ACCEL_BATCH)), _accel_payloads),
    st.tuples(st.just(int(FrameKind.BATTERY_STATUS)), _battery_payloads),
    st.tuples(st.integers(0, 255), st.one_of(
        _fsr_payloads, _accel_payloads, _battery_payloads, st.binary(max_size=255))),
)


@settings(max_examples=500, deadline=None)
@given(kind_and_payload=_kinds_and_payloads, seq=st.integers(0, 0xFFFF), flags=st.integers(0, 0xFF))
def test_decode_matches_an_independent_reference_decode(kind_and_payload, seq, flags):
    kind_byte, payload = kind_and_payload
    raw = crc_valid_frame(kind_byte, payload, seq, flags)
    got, expected = outcome(decode, raw), outcome(reference_decode, raw)
    assert got == expected
    if isinstance(expected, TelemetryFrame):
        assert type(got.kind) is FrameKind
        assert type(got.payload) is type(expected.payload)
        assert got.payload.to_bytes() == payload


def test_decode_rejects_fsr_code_past_twelve_bits():
    raw = crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB2H", 0, 2, 0xFFF, 0x1000))
    with pytest.raises(BadLength, match="4096"):
        decode(raw)


@pytest.mark.parametrize("kind", [FrameKind.FSR_BATCH, FrameKind.ACCEL_BATCH])
def test_decode_rejects_payload_shorter_than_the_batch_head(kind):
    # t0_ms is whole, but the count byte that follows it is missing
    with pytest.raises(BadLength, match="too short"):
        decode(crc_valid_frame(kind, struct.pack("<I", 0)))


@pytest.mark.parametrize("kind", [FrameKind.FSR_BATCH, FrameKind.ACCEL_BATCH])
def test_decode_rejects_zero_count_batch(kind):
    with pytest.raises(BadLength):
        decode(crc_valid_frame(kind, struct.pack("<IB", 0, 0)))


def test_split_resyncs_past_wide_code_and_empty_batch():
    good = [TelemetryFrame(FrameKind.FSR_BATCH, seq, 0, FsrBatchPayload(40 * seq, (seq, 7)))
            for seq in range(3)]
    bad = [crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB2H", 0, 2, 1, 0x1000)),
           crc_valid_frame(FrameKind.ACCEL_BATCH, struct.pack("<IB", 0, 0))]
    assert all(MAGIC not in b[1:] for b in bad)
    data = encode(good[0]) + bad[0] + encode(good[1]) + bad[1] + encode(good[2])
    frames, resyncs, pending = split_stream(data)
    assert frames == good
    first = len(encode(good[0]))
    second = first + len(bad[0]) + len(encode(good[1]))
    assert [(r.offset, r.skipped) for r in resyncs] == [
        (first, len(bad[0])), (second, len(bad[1]))]
    assert pending == 0


# ---------------------------------------------------------------------------
# stream splitting
# ---------------------------------------------------------------------------

def _frames_bytes(rng, n):
    frames = [random_frame(rng) for _ in range(n)]
    return frames, b"".join(encode(f) for f in frames)


def test_split_clean_stream():
    rng = random.Random(31)
    frames, data = _frames_bytes(rng, 40)
    out, resyncs, pending = split_stream(data)
    assert out == frames
    assert resyncs == []
    assert pending == 0


def test_split_garbage_between_frames_is_one_resync():
    rng = random.Random(37)
    frames, _ = _frames_bytes(rng, 2)
    garbage = b"\x00\xfe\x13"                      # no magic byte inside
    data = encode(frames[0]) + garbage + encode(frames[1])
    out, resyncs, pending = split_stream(data)
    assert out == frames
    assert len(resyncs) == 1
    assert resyncs[0].skipped == 3
    assert resyncs[0].offset == len(encode(frames[0]))
    assert pending == 0


def test_split_leading_garbage():
    rng = random.Random(41)
    frames, data = _frames_bytes(rng, 1)
    out, resyncs, _ = split_stream(b"\x11\x22" + data)
    assert out == frames
    assert len(resyncs) == 1 and resyncs[0].offset == 0 and resyncs[0].skipped == 2


def test_split_corrupted_frame_recovers_neighbors():
    rng = random.Random(43)
    frames, _ = _frames_bytes(rng, 3)
    middle = bytearray(encode(frames[1]))
    middle[10] ^= 0xFF
    data = encode(frames[0]) + bytes(middle) + encode(frames[2])
    out, resyncs, pending = split_stream(data)
    assert frames[0] in out and frames[2] in out
    assert frames[1] not in out
    assert len(resyncs) >= 1
    assert pending == 0


def test_split_holds_partial_tail():
    rng = random.Random(47)
    frames, data = _frames_bytes(rng, 2)
    cut = len(data) - 4
    splitter = StreamSplitter()
    got = splitter.feed(data[:cut])
    assert got == frames[:1]
    assert splitter.pending_bytes > 0
    got += splitter.feed(data[cut:])
    assert got == frames
    assert splitter.pending_bytes == 0


def test_split_drops_a_stray_magic_byte_at_the_end_of_a_capture():
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 2.0)
    head = b"".join(encode(f) for f in frames[:-2])
    tail = b"".join(encode(f) for f in frames[-2:])
    stray = bytes([MAGIC, VERSION, 0x01, 0x00, 0x00, 0x00, 0xFF])  # declares 263 bytes
    out, resyncs, pending = split_stream(head + stray + tail)
    assert out == frames
    assert [(r.offset, r.skipped) for r in resyncs] == [(len(head), len(stray))]
    assert pending == 0
    # a cut-off last frame has nothing after it, so it stays pending
    out, resyncs, pending = split_stream((head + tail)[:-3])
    assert out == frames[:-1]
    assert resyncs == []
    assert pending == len(encode(frames[-1])) - 3


def test_finish_finds_a_frame_directly_after_a_held_stray_magic_byte():
    # the stray candidate's length byte is the frame's flags byte, so it
    # declares 263 bytes and is held until finish() looks from offset 1
    frame = TelemetryFrame(FrameKind.FSR_BATCH, 0x0102, 0xFF, FsrBatchPayload(40, (1, 2, 3)))
    data = bytes([MAGIC]) + encode(frame)
    splitter = StreamSplitter()
    assert list(splitter.feed(data)) == []
    assert splitter.pending_bytes == len(data)
    assert list(splitter.finish()) == [frame]
    assert [(r.offset, r.skipped) for r in splitter.resyncs] == [(0, 1)]
    assert splitter.pending_bytes == 0


def test_split_byte_at_a_time_equals_one_shot():
    rng = random.Random(53)
    frames, data = _frames_bytes(rng, 10)
    data = data[:20] + b"\xde\xad" + data[20:]     # some mid-stream noise
    one_shot, one_resyncs, _ = split_stream(data)
    splitter = StreamSplitter()
    dribbled = []
    for i in range(len(data)):
        dribbled.extend(splitter.feed(data[i:i + 1]))
    assert dribbled == one_shot
    assert [(r.offset, r.skipped) for r in splitter.resyncs] == [
        (r.offset, r.skipped) for r in one_resyncs
    ]


def test_split_random_chunking_is_prefix_stable():
    rng = random.Random(59)
    frames, data = _frames_bytes(rng, 30)
    for _ in range(20):
        splitter = StreamSplitter()
        got = []
        i = 0
        while i < len(data):
            j = min(len(data), i + rng.randrange(1, 97))
            got.extend(splitter.feed(data[i:j]))
            # prefix property: whatever has come out so far leads the sequence
            assert got == frames[:len(got)]
            i = j
        assert got == frames


def test_split_stats_counters():
    rng = random.Random(61)
    frames, data = _frames_bytes(rng, 5)
    splitter = StreamSplitter()
    splitter.feed(b"\x01\x02" + data + b"\x03")
    assert splitter.frames_out == 5
    assert splitter.resync_count == 2
    assert splitter.skipped_bytes == 3


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frames=st.integers(1, 12),
    flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)), max_size=8),
    chunks=st.lists(st.integers(1, 64), max_size=40),
)
def test_split_damaged_stream_is_chunking_invariant(seed, n_frames, flips, chunks):
    _, data = _frames_bytes(random.Random(seed), n_frames)
    damaged = bytearray(data)
    for pos, bit in flips:
        damaged[pos % len(damaged)] ^= 1 << bit
    damaged = bytes(damaged)
    one_shot, one_resyncs, one_pending = split_stream(damaged)
    splitter = StreamSplitter()
    got = []
    i = 0
    for size in chunks:
        got.extend(splitter.feed(damaged[i:i + size]))
        i += size
    got.extend(splitter.feed(damaged[i:]))
    got.extend(splitter.finish())
    assert got == one_shot
    assert splitter.resyncs == one_resyncs
    assert splitter.pending_bytes == one_pending


@example(seed=1, n_frames=2, offset=0, bit=0)  # a spurious magic byte is held at the end
@example(seed=40430, n_frames=3, offset=227, bit=0)  # and a second one inside the first
@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frames=st.integers(1, 12),
    offset=st.integers(0, 2**20),
    bit=st.integers(0, 7),
)
def test_split_one_bit_flip_costs_at_most_the_frames_that_hold_it(seed, n_frames, offset, bit):
    frames, data = _frames_bytes(random.Random(seed), n_frames)
    damaged = bytearray(data)
    pos = offset % len(data)
    damaged[pos] ^= 1 << bit
    out, _, _ = split_stream(bytes(damaged))
    if any(f not in frames for f in out):
        return  # a false candidate passed the CRC and may cover good frames
    start = 0
    for frame in frames:
        end = start + len(encode(frame))
        if not start <= pos < end:
            assert frame in out
        start = end


_stream_pieces = st.one_of(
    st.binary(max_size=16),
    st.sampled_from([bytes([MAGIC]), bytes([MAGIC, VERSION])]),
    st.integers(0, 2**32 - 1).map(lambda seed: encode(random_frame(random.Random(seed)))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_stream_pieces, max_size=48).map(b"".join))
def test_split_never_raises_and_accounts_for_every_byte(data):
    frames, resyncs, pending = split_stream(data)
    framed = sum(len(encode(f)) for f in frames)
    assert framed + sum(r.skipped for r in resyncs) + pending == len(data)


def reference_split(data: bytes):
    """split_stream written out a byte at a time, with reference_decode.

    At a magic byte whose declared frame is whole and valid, take the
    frame; otherwise drop one byte, joining the current run of dropped
    bytes.  A magic byte whose frame runs past the data is held, unless a
    valid frame starts anywhere after it: then it is dropped too.
    Returns (frames, resync (offset, skipped) runs, pending bytes).
    """
    def candidate(i):
        """The bytes of the frame that data[i] declares, or None past the end."""
        if len(data) - i < 7 or len(data) - i < 8 + data[i + 6]:
            return None
        return data[i:i + 8 + data[i + 6]]

    def valid_at(i):
        raw = candidate(i) if data[i] == MAGIC else None
        return raw is not None and isinstance(outcome(reference_decode, raw), TelemetryFrame)

    frames, runs, pos, in_run = [], [], 0, False
    while pos < len(data):
        if data[pos] == MAGIC:
            raw = candidate(pos)
            if raw is None and not any(valid_at(i) for i in range(pos + 1, len(data))):
                break
            frame = None if raw is None else outcome(reference_decode, raw)
            if isinstance(frame, TelemetryFrame):
                frames.append(frame)
                pos += len(raw)
                in_run = False
                continue
        if in_run:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((pos, 1))
            in_run = True
        pos += 1
    return frames, runs, len(data) - pos


@settings(max_examples=300, deadline=None)
@given(st.lists(_stream_pieces, max_size=48).map(b"".join),
       st.lists(st.integers(1, 64), max_size=40))
def test_split_matches_an_independent_reference_split(data, chunks):
    expected = reference_split(data)
    frames, resyncs, pending = split_stream(data)
    assert (frames, [(r.offset, r.skipped) for r in resyncs], pending) == expected
    splitter = StreamSplitter()
    got, i = [], 0
    for size in chunks:
        got += splitter.feed(data[i:i + size])
        i += size
    got += splitter.feed(data[i:]) + splitter.finish()
    assert (got, [(r.offset, r.skipped) for r in splitter.resyncs],
            splitter.pending_bytes) == expected


# ---------------------------------------------------------------------------
# the column-wise validity pass and the frame table
# ---------------------------------------------------------------------------

def frame_with_version(version: int, kind_byte: int, payload: bytes) -> bytes:
    body = struct.pack("<BBHBB", version, kind_byte, 0, 0, len(payload)) + payload
    return bytes([MAGIC]) + body + bytes([crc8_oracle(body)])


_FSR3 = struct.pack("<IB3H", 40, 3, 1, 2, 3)

# whole frames with one field broken, each of them rejected by _parse, and
# frames with a field at the largest value the wire allows
_edge_frames = st.sampled_from([
    frame_with_version(VERSION + 1, FrameKind.FSR_BATCH, _FSR3),
    crc_valid_frame(0x04, _FSR3),
    crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB3H", 40, 4, 1, 2, 3)),
    crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB", 40, 0)),
    crc_valid_frame(FrameKind.ACCEL_BATCH, struct.pack("<IB", 40, 0)),
    crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB2H", 40, 2, 1, 0x1000)),
    crc_valid_frame(FrameKind.BATTERY_STATUS, struct.pack("<IHB", 40, 0x1000, 50)),
    crc_valid_frame(FrameKind.BATTERY_STATUS, struct.pack("<IHB", 40, 100, 101)),
    crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<I", 40)),
    crc_valid_frame(FrameKind.BATTERY_STATUS, struct.pack("<IHB", 40, 100, 50)[:6]),
    crc_valid_frame(FrameKind.FSR_BATCH, struct.pack("<IB2H", 40, 2, 0x0FFF, 0)),
    crc_valid_frame(FrameKind.BATTERY_STATUS, struct.pack("<IHB", 40, 0x0FFF, 100)),
])


def parse_verdict(data: bytes, i: int) -> str:
    try:
        _parse(data, i)
    except Truncated:
        return "truncated"
    except ProtocolError:
        return "rejected"
    return "valid"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_stream_pieces, _edge_frames), max_size=48).map(b"".join))
def test_the_column_pass_gives_parse_verdicts_at_every_offset(data):
    verdicts = _scan(np.frombuffer(data, dtype=np.uint8))
    for i in range(len(data)):
        expected = parse_verdict(data, i)
        if data[i] != MAGIC:
            assert i not in verdicts and expected != "valid"
            continue
        end = verdicts[i]
        got = "valid" if end > 0 else "truncated" if end == _HELD else "rejected"
        assert got == expected, (i, data)
        if end > 0:
            assert end == _parse(data, i)[1]


@pytest.mark.parametrize("frame", [
    encode(TelemetryFrame(FrameKind.FSR_BATCH, 1, 0, FsrBatchPayload(40, (0x0FFF,)))),
    encode(TelemetryFrame(FrameKind.BATTERY_STATUS, 2, FLAG_CHARGING,
                          BatteryStatusPayload(40, 0x0FFF, 100))),
], ids=["fsr-code-4095", "battery-code-4095-percent-100"])
def test_the_column_pass_accepts_the_largest_codes_and_percent(frame):
    assert _scan(np.frombuffer(frame, dtype=np.uint8)) == {0: len(frame)}


@pytest.mark.parametrize("bulk_min", [0, 10**9], ids=["column-pass", "parse-each"])
@settings(max_examples=150, deadline=None)
@given(data=st.lists(st.one_of(_stream_pieces, _edge_frames), max_size=48).map(b"".join),
       chunks=st.lists(st.integers(1, 64), max_size=40))
def test_both_verdict_sources_split_as_the_reference_does(bulk_min, data, chunks):
    with mock.patch.object(protocol, "BULK_MIN_CANDIDATES", bulk_min):
        expected = reference_split(data)
        frames, resyncs, pending = split_stream(data)
        assert (frames, [(r.offset, r.skipped) for r in resyncs], pending) == expected
        splitter = StreamSplitter()
        got, i = [], 0
        for size in chunks:
            got += splitter.feed(data[i:i + size])
            i += size
        got += splitter.feed(data[i:]) + splitter.finish()
        assert (got, [(r.offset, r.skipped) for r in splitter.resyncs],
                splitter.pending_bytes) == expected


def test_a_split_table_holds_records_equal_to_decode():
    rng = random.Random(67)
    frames, data = _frames_bytes(rng, 80)
    table, _, _ = split_stream(data)
    assert isinstance(table, FrameTable) and len(table) == 80
    assert list(table) == frames and [table[i] for i in range(80)] == frames
    assert table[-1] == frames[-1] and table[2:5] == frames[2:5]
    for record in (table[0], next(iter(table))):
        assert type(record.kind) is FrameKind and type(record.seq) is int
        payload = record.payload
        assert type(payload.t0_ms if hasattr(payload, "t0_ms") else payload.t_ms) is int
    with pytest.raises(IndexError):
        table[80]


def test_a_table_compares_and_joins_with_any_frame_sequence():
    rng = random.Random(71)
    frames, data = _frames_bytes(rng, 70)
    table = split_stream(data)[0]
    assert table == frames and frames == table and table == tuple(frames)
    assert table == FrameTable.from_frames(frames)
    assert table != frames[:-1] and table != frames[:-1] + frames[:1]
    assert table != [1] * 70 and table != "x"
    assert table + [] is table and list(table + frames[:2]) == frames + frames[:2]
    assert list(frames[:2] + table) == frames[:2] + frames
    assert FrameTable.from_frames(table) is table
    with pytest.raises(BadLength):
        FrameTable.from_frames([TelemetryFrame(FrameKind.FSR_BATCH, 0, 0,
                                               BatteryStatusPayload(0, 1, 2))])
    with pytest.raises(UnknownKind):
        FrameTable.from_frames([TelemetryFrame(9, 0, 0, FsrBatchPayload(0, (1,)))])


def test_a_table_takes_no_field_that_encode_rejects():
    # np.fromiter would cut a float and parse a string; encode raises for both
    f = TelemetryFrame(FrameKind.FSR_BATCH, 1, 0, FsrBatchPayload(40, (7, 8)))
    for g in (dataclasses.replace(f, seq=1.5), dataclasses.replace(f, flags="0"),
              dataclasses.replace(f, payload=FsrBatchPayload(40.0, (7, 8))),
              dataclasses.replace(f, payload=FsrBatchPayload(40, (7, "8")))):
        with pytest.raises(BadLength):
            encode(g)
        with pytest.raises(BadLength):
            FrameTable.from_frames([g])
        assert FrameTable.from_frames([f]) != [g]
    # an accel sample of two axes would shift every axis after it
    pair = TelemetryFrame(FrameKind.ACCEL_BATCH, 0, 0, AccelBatchPayload(0, ((1, 2), (3, 4, 5, 6))))
    with pytest.raises(BadLength):
        FrameTable.from_frames([pair])


# what breaks a dirty frame: one field, its count, one sample, or its kind
_BREAKS = ["t", "seq", "flags", "count", "sample", "kind"]


@st.composite
def _any_frames(draw):
    """Frame records of any kind, a quarter of them dirty: broken in one of
    the ways :func:`encode` rejects, by a value one past either end of its
    field, far past the wire's widths, a float, a string, or True (which is
    1 and fine), a count of 0, one past the MTU or past a u8, an accel pair,
    or a kind that does not carry the payload."""
    frames = []
    for _ in range(draw(st.integers(0, 5))):
        broken = draw(st.sampled_from([None] * 3 * len(_BREAKS) + _BREAKS))

        def field(lo, hi, name):
            if broken != name:
                return draw(st.integers(lo, hi))
            return draw(st.sampled_from([lo - 1, hi + 1, 2 ** 70, 1.5, float(lo), "1", True]))

        kind = draw(st.sampled_from(list(FrameKind)))
        t = field(0, 2 ** 32 - 1, "t")
        if kind is FrameKind.BATTERY_STATUS:
            which = draw(st.booleans())
            payload = BatteryStatusPayload(t, field(0, 0xFFF, which and "sample"),
                                           field(0, 100, not which and "sample"))
        else:
            # the MTU's most samples; one more is oversize, 256 overflows the u8 count
            most = (MAX_PAYLOAD - 5) // (2 if kind is FrameKind.FSR_BATCH else 6)
            n = draw(st.sampled_from([0, most + 1, 256]) if broken == "count"
                     else st.one_of(st.integers(1, 6), st.just(most)))
            at = draw(st.integers(0, max(n - 1, 0)))  # the sample a "sample" break breaks
            if kind is FrameKind.FSR_BATCH:
                payload = FsrBatchPayload(t, tuple(field(0, 0xFFF, i == at and "sample")
                                                   for i in range(n)))
            else:
                rows = [tuple(field(-2 ** 15, 2 ** 15 - 1, i == at and axis == 2 and "sample")
                              for axis in range(3)) for i in range(n)]
                if broken == "sample" and n and draw(st.booleans()):
                    rows[at] = rows[at][:2]
                payload = AccelBatchPayload(t, tuple(rows))
        if broken == "kind":
            kind = draw(st.sampled_from([k for k in FrameKind if k != kind] + [9]))
        frames.append(TelemetryFrame(kind, field(0, 0xFFFF, "seq"), field(0, 0xFF, "flags"),
                                     payload))
    return frames


_OK = TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (1, 2)))


# the first bad frame's error wins over a later frame's, in either order
@example([_OK, TelemetryFrame(FrameKind.FSR_BATCH, 1, 0, FsrBatchPayload(0, (1,) * 120)),
          TelemetryFrame(9, 2, 0, FsrBatchPayload(0, (1,)))])
@example([_OK, TelemetryFrame(9, 2, 0, FsrBatchPayload(0, (1,))),
          TelemetryFrame(FrameKind.ACCEL_BATCH, 1, 0, AccelBatchPayload(0, ((1, 2, 3),) * 40))])
@example([_OK, TelemetryFrame(FrameKind.BATTERY_STATUS, 1, 0, BatteryStatusPayload(0, 7, 101))])
@example([_OK, TelemetryFrame(FrameKind.FSR_BATCH, 1, 0, FsrBatchPayload(0, (4, 0x1000)))])
@example([_OK, TelemetryFrame(FrameKind.ACCEL_BATCH, 1, 0, AccelBatchPayload(0, ()))])
@example([_OK, dataclasses.replace(_OK, seq=1.5)])
@settings(max_examples=300, deadline=None)
@given(_any_frames())
def test_encode_session_raises_exactly_where_encode_does(frames):
    expected = []
    for f in frames:
        try:
            expected.append(encode(f))
        except ProtocolError as e:
            expected = type(e)
            break
    if isinstance(expected, list):
        assert encode_session(frames) == b"".join(expected)
        assert encode_session(FrameTable.from_frames(frames)) == b"".join(expected)
    else:
        with pytest.raises(ProtocolError) as raised:
            encode_session(frames)
        assert type(raised.value) is expected
