"""Framing codec and stream splitter.

The CRC oracle here is deliberately a second implementation (table-driven,
vs the package's bitwise loop) anchored by the classic "123456789" check
value, so a shared mistake can't hide.
"""

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from respsim.firmware import ConstantStimulus, FirmwareEmulator
from respsim.protocol import (
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
    FsrBatchPayload,
    OversizeFrame,
    ProtocolError,
    StreamSplitter,
    TelemetryFrame,
    Truncated,
    UnknownKind,
    crc8,
    decode,
    encode,
    split_stream,
)


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
    frames = FirmwareEmulator().run(ConstantStimulus(), 2.0)
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
