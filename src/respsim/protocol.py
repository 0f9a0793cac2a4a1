"""Telemetry framing: byte-exact encode/decode plus stream resynchronization.

Every frame is ``magic | version | kind | seq(u16 LE) | flags | len |
payload | crc8`` — 8 bytes of overhead around the payload.  The CRC uses
polynomial 0x07 with init 0x00 over version..payload inclusive, so any
single-bit corruption lands either in the magic check, the CRC check, or
the CRC byte itself and is always rejected.

:class:`StreamSplitter` is the receive side for a raw byte stream: frames
may arrive split across arbitrary chunk boundaries and interleaved with
garbage.  It reads frames with :func:`decode`'s own parser, skips garbage
to the next magic byte in one step, and joins a discard to the last resync
run when it starts where that run ends.  A candidate whose declared length
runs past the data is held for more bytes; :meth:`StreamSplitter.finish`
drops it at the end of a capture when a frame follows its magic byte.

:class:`TelemetryFrame` and its payloads are plain records, checked at the
two borders of the program instead of when built: :func:`encode` for
frames leaving it and :func:`decode` for bytes arriving.  The struct
layouts bound every field width, and one function holds the rules they
leave open, which both call.  ``encode`` raises only :class:`ProtocolError`
subclasses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import starmap

MAGIC = 0xA5
VERSION = 0x01
MAX_PAYLOAD = 244          # BLE MTU budget for the payload field
MAX_CODE = 0xFFF           # FSR and battery code fields carry 12-bit ADC codes
HEADER_LEN = 7             # magic .. len
FRAME_OVERHEAD = HEADER_LEN + 1  # + trailing crc

FLAG_FINAL_FLUSH = 0x01    # partial batch emitted at end of run
FLAG_CHARGING = 0x02       # charger attached when the frame was built

_HEADER = struct.Struct("<BBBHBB")


class FrameKind(IntEnum):
    FSR_BATCH = 0x01
    ACCEL_BATCH = 0x02
    BATTERY_STATUS = 0x03


class ProtocolError(Exception):
    """Base for every framing violation."""


class BadMagic(ProtocolError):
    pass


class BadVersion(ProtocolError):
    pass


class BadCrc(ProtocolError):
    pass


class Truncated(ProtocolError):
    pass


class UnknownKind(ProtocolError):
    pass


class BadLength(ProtocolError):
    """Declared length disagrees with the buffer or the payload structure."""


class OversizeFrame(ProtocolError):
    """Payload would not fit the MTU budget."""


def _crc8_table(poly: int) -> bytes:
    table = bytearray(256)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return bytes(table)


_CRC8_07 = _crc8_table(0x07)


def crc8(data: bytes) -> int:
    """CRC-8, polynomial 0x07 (MSB first, init 0, no reflection, no final xor).

    Table-driven: this sits on the decode hot path.
    """
    crc = 0
    table = _CRC8_07
    for byte in data:
        crc = table[crc ^ byte]
    return crc


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

# Both batch kinds share one layout: a head of t0_ms (u32) and the sample
# count (u8), then per sample one u16 FSR code or an i16 x, y, z triple.
_BATCH_HEAD = struct.Struct("<IB")
_XYZ = struct.Struct("<3h")
_SAMPLE_BYTES = {FrameKind.FSR_BATCH: 2, FrameKind.ACCEL_BATCH: _XYZ.size}
_BATTERY = struct.Struct("<IHB")


def batch_payload_len(kind: FrameKind, count: int) -> int:
    """Bytes in a batch payload of ``count`` samples of ``kind``."""
    return _BATCH_HEAD.size + _SAMPLE_BYTES[kind] * count


def _batch_head(raw: bytes, kind: FrameKind, name: str) -> tuple[int, int]:
    """``(t0_ms, count)`` of a batch payload whose length matches its count."""
    if len(raw) < _BATCH_HEAD.size:
        raise BadLength(f"{name} batch payload too short ({len(raw)} bytes)")
    t0, count = _BATCH_HEAD.unpack_from(raw)
    if len(raw) != batch_payload_len(kind, count):
        raise BadLength(f"{name} batch declares {count} samples but payload is {len(raw)} bytes")
    return t0, count


@dataclass(frozen=True, slots=True)
class FsrBatchPayload:
    """Batch of consecutive FSR ADC codes starting at ``t0_ms``."""

    t0_ms: int
    codes: tuple[int, ...]

    def to_bytes(self) -> bytes:
        return struct.pack(
            f"{_BATCH_HEAD.format}{len(self.codes)}H", self.t0_ms, len(self.codes), *self.codes
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FsrBatchPayload":
        t0, count = _batch_head(raw, FrameKind.FSR_BATCH, "FSR")
        return cls(t0, struct.unpack_from(f"<{count}H", raw, _BATCH_HEAD.size))


@dataclass(frozen=True, slots=True)
class AccelBatchPayload:
    """Batch of (x, y, z) milli-g triples starting at ``t0_ms``."""

    t0_ms: int
    samples: tuple[tuple[int, int, int], ...]

    def to_bytes(self) -> bytes:
        return b"".join((_BATCH_HEAD.pack(self.t0_ms, len(self.samples)),
                         *starmap(_XYZ.pack, self.samples)))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AccelBatchPayload":
        t0, _ = _batch_head(raw, FrameKind.ACCEL_BATCH, "accel")
        return cls(t0, tuple(_XYZ.iter_unpack(raw[_BATCH_HEAD.size:])))


@dataclass(frozen=True, slots=True)
class BatteryStatusPayload:
    """Battery measurement: raw sense-divider ADC code plus device percent."""

    t_ms: int
    adc_code: int
    percent: int

    def to_bytes(self) -> bytes:
        return _BATTERY.pack(self.t_ms, self.adc_code, self.percent)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BatteryStatusPayload":
        if len(raw) != _BATTERY.size:
            raise BadLength(f"battery payload must be {_BATTERY.size} bytes, got {len(raw)}")
        return cls(*_BATTERY.unpack(raw))


Payload = FsrBatchPayload | AccelBatchPayload | BatteryStatusPayload

PAYLOAD_TYPES: dict[FrameKind, type] = {
    FrameKind.FSR_BATCH: FsrBatchPayload,
    FrameKind.ACCEL_BATCH: AccelBatchPayload,
    FrameKind.BATTERY_STATUS: BatteryStatusPayload,
}
_KINDS: dict[int, FrameKind] = {int(kind): kind for kind in FrameKind}


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TelemetryFrame:
    """One frame as a record; :func:`encode` and :func:`decode` check it."""

    kind: FrameKind
    seq: int
    flags: int
    payload: Payload

    @property
    def final_flush(self) -> bool:
        return bool(self.flags & FLAG_FINAL_FLUSH)

    @property
    def charging(self) -> bool:
        return bool(self.flags & FLAG_CHARGING)


def _kind(value) -> FrameKind:
    """The :class:`FrameKind` of a kind value or byte."""
    kind = _KINDS.get(value)
    if kind is None:
        raise UnknownKind(f"unknown frame kind {value!r}")
    return kind


def _check(kind, payload: Payload) -> None:
    """The wire rules the struct layouts, which bound every field and take
    only whole numbers, leave open: a known kind carrying its own payload
    type, at least one sample per batch, 12-bit codes and a percent of at
    most 100.  :func:`encode` and :func:`decode` both call this."""
    kind = _kind(kind)
    expected = PAYLOAD_TYPES[kind]
    if type(payload) is not expected:
        raise BadLength(
            f"kind {kind.name} requires {expected.__name__}, got {type(payload).__name__}"
        )
    if expected is BatteryStatusPayload:
        if payload.adc_code > MAX_CODE:
            raise BadLength(f"battery adc_code {payload.adc_code} outside 12-bit range")
        if payload.percent > 100:
            raise BadLength(f"battery percent {payload.percent} over 100")
    elif not (payload.codes if expected is FsrBatchPayload else payload.samples):
        raise BadLength(f"{kind.name} must hold at least one sample")
    elif expected is FsrBatchPayload and max(payload.codes) > MAX_CODE:
        raise BadLength(f"FSR code {max(payload.codes)} outside 12-bit range")


def encode(frame: TelemetryFrame) -> bytes:
    """Serialize a frame; total length is ``8 + len(payload)`` bytes.

    Raises only :class:`ProtocolError` subclasses: :class:`UnknownKind`,
    :class:`OversizeFrame`, or :class:`BadLength` for a field that breaks
    a wire rule or does not fit its layout.
    """
    try:
        _check(frame.kind, frame.payload)
        payload = frame.payload.to_bytes()
        if len(payload) > MAX_PAYLOAD:
            raise OversizeFrame(
                f"payload is {len(payload)} bytes, MTU budget allows {MAX_PAYLOAD}"
            )
        header = _HEADER.pack(MAGIC, VERSION, frame.kind, frame.seq, frame.flags, len(payload))
    except (struct.error, TypeError) as e:
        raise BadLength(f"frame does not fit the wire layout: {e}") from None
    body = header[1:] + payload  # crc covers version .. payload
    return header + payload + bytes([crc8(body)])


def _parse(buf, offset: int = 0) -> tuple[TelemetryFrame, int]:
    """The frame at ``buf[offset]`` and the offset just past it: the one reader
    of a frame's header.  :class:`Truncated` comes first, exactly when ``buf``
    ends before the declared frame; then magic, version, CRC, kind, payload."""
    if len(buf) < offset + HEADER_LEN:
        raise Truncated(f"need a {HEADER_LEN}-byte header, got {len(buf) - offset} bytes")
    magic, version, kind_byte, seq, flags, length = _HEADER.unpack_from(buf, offset)
    end = offset + FRAME_OVERHEAD + length
    if len(buf) < end:
        raise Truncated(f"frame declares {end - offset} bytes, got {len(buf) - offset}")
    if magic != MAGIC:
        raise BadMagic(f"expected 0x{MAGIC:02X}, got 0x{magic:02X}")
    if version != VERSION:
        raise BadVersion(f"expected version 0x{VERSION:02X}, got 0x{version:02X}")
    expected_crc = crc8(buf[offset + 1:end - 1])
    if buf[end - 1] != expected_crc:
        raise BadCrc(f"crc mismatch: expected 0x{expected_crc:02X}, got 0x{buf[end - 1]:02X}")
    kind = _kind(kind_byte)
    payload = PAYLOAD_TYPES[kind].from_bytes(buf[offset + HEADER_LEN:end - 1])
    _check(kind, payload)
    return TelemetryFrame(kind, seq, flags, payload), end


def decode(data: bytes) -> TelemetryFrame:
    """Parse exactly one frame from ``data``; reject anything malformed.

    :class:`Truncated` wins whenever ``data`` ends before the frame its
    header declares, and :class:`BadLength` for trailing bytes comes last.
    """
    frame, end = _parse(data)
    if end != len(data):
        raise BadLength(f"{len(data) - end} trailing bytes after frame")
    return frame


# ---------------------------------------------------------------------------
# stream splitting
# ---------------------------------------------------------------------------

@dataclass
class ResyncEvent:
    """One maximal run of bytes discarded while hunting for a frame start."""

    offset: int    # absolute stream offset of the first discarded byte
    skipped: int   # run length in bytes


class StreamSplitter:
    """Incremental frame extractor over an unreliable byte stream.

    Feed arbitrary chunks; complete valid frames come back in order.  Bytes
    up to the next magic byte, and a magic byte that starts no valid frame,
    are dropped and coalesced into :class:`ResyncEvent` runs.  A partial
    frame at the tail is held until more bytes arrive, so splitting a valid
    stream at any point yields a prefix of its frame sequence.  Call
    :meth:`finish` once the stream has ended.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._consumed = 0        # absolute offset of _buf[0] in the stream
        self.resyncs: list[ResyncEvent] = []
        self.frames_out = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet resolved into a frame or discarded."""
        return len(self._buf)

    @property
    def resync_count(self) -> int:
        return len(self.resyncs)

    @property
    def skipped_bytes(self) -> int:
        return sum(ev.skipped for ev in self.resyncs)

    def _skip(self, n: int) -> None:
        """Discard ``n`` bytes, joining the last run if they continue it."""
        last = self.resyncs[-1] if self.resyncs else None
        if last is not None and last.offset + last.skipped == self._consumed:
            last.skipped += n
        else:
            self.resyncs.append(ResyncEvent(offset=self._consumed, skipped=n))
        del self._buf[:n]
        self._consumed += n

    def feed(self, chunk: bytes) -> list[TelemetryFrame]:
        """Absorb a chunk and return every frame completed by it."""
        self._buf.extend(chunk)
        out: list[TelemetryFrame] = []
        while self._buf:
            if self._buf[0] != MAGIC:
                start = self._buf.find(MAGIC)
                self._skip(len(self._buf) if start < 0 else start)
                continue
            try:
                frame, end = _parse(self._buf)
            except Truncated:
                break  # wait for the rest of the candidate frame
            except ProtocolError:
                self._skip(1)
                continue
            out.append(frame)
            del self._buf[:end]
            self._consumed += end
        self.frames_out += len(out)
        return out

    def finish(self) -> list[TelemetryFrame]:
        """End of stream: resolve a held candidate that can no longer grow.

        While a whole valid frame starts anywhere after the held candidate's
        magic byte, that byte is dropped as a resync and splitting goes on.
        A candidate that no frame follows, such as a cut-off last frame,
        stays pending.
        """
        out: list[TelemetryFrame] = []
        while any(_frame_at(self._buf, i) for i in range(1, len(self._buf))):
            self._skip(1)
            out.extend(self.feed(b""))
        return out


def _frame_at(buf: bytearray, i: int) -> bool:
    """Whether a whole valid frame starts at ``buf[i]``."""
    try:
        _parse(buf, i)
    except ProtocolError:  # Truncated too, where the frame runs past the end
        return False
    return True


def split_stream(data: bytes) -> tuple[list[TelemetryFrame], list[ResyncEvent], int]:
    """One-shot convenience over :class:`StreamSplitter` for a whole capture.

    Returns (frames, resync events, unresolved tail bytes).
    """
    splitter = StreamSplitter()
    frames = splitter.feed(data) + splitter.finish()
    return frames, splitter.resyncs, splitter.pending_bytes
