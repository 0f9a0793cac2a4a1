"""Telemetry framing: byte-exact encode/decode plus stream resynchronization.

Every frame is ``magic | version | kind | seq(u16 LE) | flags | len |
payload | crc8`` — 8 bytes of overhead around the payload.  The CRC uses
polynomial 0x07 with init 0x00 over version..payload inclusive, so any
single-bit corruption lands either in the magic check, the CRC check, or
the CRC byte itself and is always rejected.

:class:`StreamSplitter` is the receive side for a raw byte stream: frames
may arrive split across arbitrary chunk boundaries and interleaved with
garbage.  Each feed first decides, for every magic byte in its buffer,
whether a whole valid frame starts there.  A buffer with few magic bytes
asks :func:`decode`'s own parser at each one; a larger one is decided in
one column-wise pass that gives the parser's verdicts: header rules
first, then the CRC-8 by table gathers across all candidates of one
length, then the code and percent ranges.  A walk then reads those
verdicts: it skips garbage to the next magic byte in one step, takes a
valid frame, and joins a discard to the last resync run when it starts
where that run ends.  A candidate whose declared length runs past the
data is held for more bytes; :meth:`StreamSplitter.finish` drops it at
the end of a capture when a frame follows its magic byte.

The frames of the column-wise pass come back as a :class:`FrameTable`,
columns of kind, seq, flags, time and samples copied out of the bytes,
which the host pipeline reads without a per-frame object.  It is still a
sequence of :class:`TelemetryFrame` records for every other reader.

:class:`TelemetryFrame` and its payloads are plain records, checked at the
two borders of the program instead of when built: :func:`encode` for
frames leaving it and :func:`decode` for bytes arriving.  The struct
layouts bound every field width, and one function holds the rules they
leave open, which both call.  ``encode`` raises only :class:`ProtocolError`
subclasses.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, starmap

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# frame tables
# ---------------------------------------------------------------------------

# sample values per sample in each kind's column of a FrameTable
_WIDTH = {FrameKind.FSR_BATCH: 1, FrameKind.ACCEL_BATCH: 3, FrameKind.BATTERY_STATUS: 2}


def _record(kind: FrameKind, seq: int, flags: int, t_ms: int, values: list) -> TelemetryFrame:
    """The :class:`TelemetryFrame` of one table row, from its samples as lists."""
    if kind is FrameKind.FSR_BATCH:
        payload = FsrBatchPayload(t_ms, tuple(values))
    elif kind is FrameKind.ACCEL_BATCH:
        payload = AccelBatchPayload(t_ms, tuple(map(tuple, values)))
    else:
        payload = BatteryStatusPayload(t_ms, *values[0])
    return TelemetryFrame(kind, seq, flags, payload)


class FrameTable(Sequence):
    """Frames as columns: a read-only sequence of :class:`TelemetryFrame`.

    One entry per frame in ``kind``, ``seq``, ``flags``, ``t_ms`` (a
    batch's ``t0_ms`` or a battery reading's ``t_ms``), ``count`` (samples,
    1 for a battery reading) and ``offset``, the frame's first row in
    ``samples[kind]``.  Each kind's sample column holds the samples of its
    frames in frame order: FSR codes, (x, y, z) rows, or (adc_code,
    percent) rows.  The columns are copies, never views of the bytes they
    were read from.

    Indexing and iteration build records equal to :func:`decode`'s, field
    types included; a slice is a list of them.  A table equals a table or
    a sequence of frames holding the same fields, and ``+`` joins it to
    either.
    """

    __slots__ = ("kind", "seq", "flags", "t_ms", "count", "offset", "samples")
    __hash__ = None

    def __init__(self, kind, seq, flags, t_ms, count, samples: dict) -> None:
        self.kind, self.seq, self.flags, self.t_ms, self.count = kind, seq, flags, t_ms, count
        self.samples = samples
        self.offset = np.zeros(kind.size, dtype=np.int64)
        for k in FrameKind:
            of_kind = kind == k
            n = count[of_kind]
            self.offset[of_kind] = np.cumsum(n) - n

    @classmethod
    def from_frames(cls, frames: Iterable[TelemetryFrame]) -> "FrameTable":
        """The table of any frame records; a table is returned as it is.

        Only the pairing of kind and payload type is checked, as
        :func:`encode` checks it (:class:`UnknownKind`, :class:`BadLength`).
        """
        if isinstance(frames, FrameTable):
            return frames
        head, batches = [], {kind: [] for kind in FrameKind}
        for f in frames:
            kind, p = _kind(f.kind), f.payload
            if type(p) is not PAYLOAD_TYPES[kind]:
                raise BadLength(f"kind {kind.name} requires {PAYLOAD_TYPES[kind].__name__}, "
                                f"got {type(p).__name__}")
            if kind is FrameKind.BATTERY_STATUS:
                t_ms, values = p.t_ms, ((p.adc_code, p.percent),)
            else:
                t_ms, values = p.t0_ms, p.codes if kind is FrameKind.FSR_BATCH else p.samples
            head += kind, f.seq, f.flags, t_ms, len(values)
            batches[kind].append(values)
        columns = np.fromiter(head, dtype=np.int64, count=len(head)).reshape(-1, 5).T
        samples = {}
        for kind, width in _WIDTH.items():
            values = chain.from_iterable(batches[kind])
            if width > 1:
                values = chain.from_iterable(values)
            column = np.fromiter(values, dtype=np.int64)
            samples[kind] = column if width == 1 else column.reshape(-1, width)
        return cls(*columns, samples)

    def __len__(self) -> int:
        return self.kind.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        kind, lo = _KINDS[int(self.kind[i])], int(self.offset[i])
        return _record(kind, int(self.seq[i]), int(self.flags[i]), int(self.t_ms[i]),
                       self.samples[kind][lo:lo + int(self.count[i])].tolist())

    def __iter__(self):
        samples = {kind: column.tolist() for kind, column in self.samples.items()}
        for kind, seq, flags, t_ms, lo, n in zip(
                self.kind.tolist(), self.seq.tolist(), self.flags.tolist(), self.t_ms.tolist(),
                self.offset.tolist(), self.count.tolist()):
            kind = _KINDS[kind]
            yield _record(kind, seq, flags, t_ms, samples[kind][lo:lo + n])

    def _columns(self) -> list:
        return [self.kind, self.seq, self.flags, self.t_ms, self.count]

    def __eq__(self, other):
        """Whether ``other`` holds frames of the same kinds, seq, flags, times
        and samples: a table, or any sequence of :class:`TelemetryFrame`."""
        if not isinstance(other, FrameTable):
            if not isinstance(other, Sequence):
                return NotImplemented
            if len(other) != len(self) or not all(isinstance(f, TelemetryFrame) for f in other):
                return False
            try:
                other = FrameTable.from_frames(other)
            except ProtocolError:  # a kind or payload that no row can hold
                return False
        return (all(map(np.array_equal, self._columns(), other._columns()))
                and all(np.array_equal(self.samples[k], other.samples[k]) for k in FrameKind))

    def __add__(self, other):
        if not isinstance(other, Iterable):
            return NotImplemented
        other = FrameTable.from_frames(other)
        if not len(other):
            return self
        columns = map(np.concatenate, zip(self._columns(), other._columns()))
        return FrameTable(*columns, {k: np.concatenate((self.samples[k], other.samples[k]))
                                     for k in FrameKind})

    def __radd__(self, other):
        if not isinstance(other, Iterable):
            return NotImplemented
        return FrameTable.from_frames(other) + self

    def __repr__(self) -> str:
        return f"<FrameTable of {len(self)} frames>"


def _uint(b: np.ndarray, at: np.ndarray, nbytes: int) -> np.ndarray:
    """The little-endian unsigned integer of ``nbytes`` bytes at each offset in ``at``."""
    value = b[at].astype(np.int64)
    for i in range(1, nbytes):
        value |= b[at + i].astype(np.int64) << (8 * i)
    return value


def _table(b: np.ndarray, starts: list[int]) -> FrameTable:
    """The table of the whole valid frames that start at ``starts`` in ``b``."""
    at = np.array(starts, dtype=np.int64)
    kind = b[at + 2]
    count = np.ones(at.size, dtype=np.int64)
    batch = kind != FrameKind.BATTERY_STATUS
    count[batch] = b[at[batch] + HEADER_LEN + 4]  # the count byte after t0_ms
    samples = {}
    for k in (FrameKind.FSR_BATCH, FrameKind.ACCEL_BATCH):
        n = count[kind == k]
        j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        # each sample's first byte: its frame's first sample, then j samples on
        pos = np.repeat(at[kind == k] + HEADER_LEN + _BATCH_HEAD.size, n) + j * _SAMPLE_BYTES[k]
        del j
        axes = [_uint(b, pos + 2 * axis, 2).astype(np.uint16) for axis in range(_WIDTH[k])]
        samples[k] = axes[0] if k is FrameKind.FSR_BATCH else np.stack(axes, 1).view(np.int16)
    code = at[kind == FrameKind.BATTERY_STATUS] + HEADER_LEN + 4  # past t_ms
    samples[FrameKind.BATTERY_STATUS] = np.stack(
        [_uint(b, code, 2), b[code + 2]], 1).astype(np.uint16)
    return FrameTable(kind, _uint(b, at + 3, 2).astype(np.uint16), b[at + 5],
                      _uint(b, at + HEADER_LEN, 4), count, samples)


# ---------------------------------------------------------------------------
# stream splitting
# ---------------------------------------------------------------------------

# A buffer holding fewer magic bytes than this is split by calling _parse at
# each one.  The column-wise pass costs a few hundred microseconds however
# few candidates it has, about what _parse takes for 60 frames.
BULK_MIN_CANDIDATES = 64

# the verdicts on a candidate that is no whole valid frame
_HELD, _REJECTED = 0, -1

_CRC8_COLUMN = np.frombuffer(_CRC8_07, dtype=np.uint8)


def _declared_len(buf, pos: int) -> int:
    """Bytes the candidate at ``buf[pos]`` needs: a header, then the frame it declares."""
    if len(buf) - pos < HEADER_LEN:
        return HEADER_LEN
    return FRAME_OVERHEAD + buf[pos + HEADER_LEN - 1]


def _verdict(buf, ends: dict[int, int] | None, pos: int) -> tuple[int, object]:
    """The verdict on the magic byte at ``buf[pos]`` and what a walk takes there.

    The verdict is the offset just past the whole valid frame that starts
    there, ``_HELD`` where the frame runs past the end, or ``_REJECTED``.
    With ``ends``, the verdicts of :func:`_scan`, the walk takes the frame's
    start; without, :func:`_parse` is asked and the walk takes the frame.
    """
    if ends is not None:
        return ends[pos], pos
    if len(buf) - pos < _declared_len(buf, pos):
        return _HELD, None  # where _parse raises Truncated, without raising it
    try:
        frame, end = _parse(buf, pos)
    except ProtocolError:
        return _REJECTED, None
    return end, frame


def _scan(b: np.ndarray) -> dict[int, int]:
    """:func:`_parse`'s verdict on every magic byte in ``b``, decided at once.

    The header rules come first, in columns over all candidates: held when
    the header or the declared frame runs past ``b``, then version, kind,
    and a payload length that fits the kind (``5 + w * count`` with
    ``count >= 1`` for a batch of ``w``-byte samples, 7 for a battery
    reading).  The candidates left are grouped by frame length.  Each group
    is one byte matrix, a row per candidate, whose CRC-8 is a table gather
    per byte column (Sarwate's table-driven CRC, run across frames), and
    whose FSR codes, battery code and percent are checked in columns.
    """
    n = b.size
    at = np.flatnonzero(b == MAGIC)
    end = np.full(at.size, _REJECTED, dtype=np.int64)
    size = np.full(at.size, n + 1, dtype=np.int64)  # past the end while the header is
    head = at + HEADER_LEN <= n
    size[head] = FRAME_OVERHEAD + b[at[head] + HEADER_LEN - 1].astype(np.int64)
    held = at + size > n
    end[held] = _HELD

    c = np.flatnonzero(~held)  # candidates still open, as indices into at
    c = c[b[at[c] + 1] == VERSION]
    kind, length = b[at[c] + 2], size[c] - FRAME_OVERHEAD
    fits = (kind == FrameKind.BATTERY_STATUS) & (length == _BATTERY.size)
    for k, w in _SAMPLE_BYTES.items():
        batch = np.flatnonzero((kind == k) & (length >= _BATCH_HEAD.size))
        count = b[at[c[batch]] + HEADER_LEN + 4].astype(np.int64)
        fits[batch] = (count >= 1) & (length[batch] == _BATCH_HEAD.size + w * count)
    c, kind = c[fits], kind[fits]

    for frame_len in np.flatnonzero(np.bincount(size[c])):
        group = size[c] == frame_len
        rows = sliding_window_view(b, frame_len)[at[c[group]]]
        crc = np.zeros(len(rows), dtype=np.uint8)
        for column in np.ascontiguousarray(rows.T)[1:frame_len - 1]:  # version .. payload
            crc = _CRC8_COLUMN.take(crc ^ column)
        ok = crc == rows[:, frame_len - 1]
        payload = rows[:, HEADER_LEN:frame_len - 1]
        of_kind = kind[group]
        fsr = of_kind == FrameKind.FSR_BATCH
        codes = np.ascontiguousarray(payload[fsr, _BATCH_HEAD.size:]).view("<u2")
        ok[fsr] &= (codes <= MAX_CODE).all(axis=1)
        battery = of_kind == FrameKind.BATTERY_STATUS
        adc_code = np.ascontiguousarray(payload[battery, 4:6]).view("<u2")[:, 0]
        ok[battery] &= (adc_code <= MAX_CODE) & (payload[battery, 6] <= 100)
        valid = c[group][ok]
        end[valid] = at[valid] + frame_len
    return dict(zip(at.tolist(), end.tolist()))  # magic byte offset -> verdict


def _valid_after(buf, ends: dict[int, int] | None, pos: int) -> bool:
    """Whether a whole valid frame starts after ``buf[pos]``."""
    pos = buf.find(MAGIC, pos + 1)
    while pos >= 0:
        if _verdict(buf, ends, pos)[0] > 0:
            return True
        pos = buf.find(MAGIC, pos + 1)
    return False


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
        self._held_len = 0        # bytes a candidate held at _buf[0] waits for
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

    def _skip(self, pos: int, n: int) -> None:
        """Record ``n`` bytes from ``_buf[pos]`` as dropped, joining the last run
        if they continue it; :meth:`_split` deletes them with the rest it read."""
        offset = self._consumed + pos
        last = self.resyncs[-1] if self.resyncs else None
        if last is not None and last.offset + last.skipped == offset:
            last.skipped += n
        else:
            self.resyncs.append(ResyncEvent(offset=offset, skipped=n))

    def feed(self, chunk: bytes) -> Sequence[TelemetryFrame]:
        """Absorb a chunk and return every frame completed by it.

        The frames come as a :class:`FrameTable`, or as a list when the
        buffer held fewer than :data:`BULK_MIN_CANDIDATES` magic bytes.
        """
        self._buf.extend(chunk)
        if len(self._buf) < self._held_len:
            return []  # the held candidate still runs past the end
        return self._split(final=False)

    def finish(self) -> Sequence[TelemetryFrame]:
        """End of stream: resolve a held candidate that can no longer grow.

        While a whole valid frame starts anywhere after the held candidate's
        magic byte, that byte is dropped as a resync and splitting goes on.
        A candidate that no frame follows, such as a cut-off last frame,
        stays pending.
        """
        return self._split(final=True)

    def _split(self, final: bool) -> Sequence[TelemetryFrame]:
        """Walk the buffer once, reading each magic byte's verdict.

        Skip to the next magic byte; take the valid frame that starts there,
        hold one that runs past the end, or drop the one byte.  At the end
        of the stream (``final``) a held candidate is dropped too while a
        valid frame starts after it.
        """
        buf = self._buf
        ends = (_scan(np.frombuffer(buf, dtype=np.uint8))
                if buf.count(MAGIC) >= BULK_MIN_CANDIDATES else None)
        taken, pos = [], 0
        while (magic := buf.find(MAGIC, pos)) >= 0:
            if magic > pos:
                self._skip(pos, magic - pos)
                pos = magic
            end, frame = _verdict(buf, ends, pos)
            if end > 0:
                taken.append(frame)
                pos = end
            elif end == _HELD and not (final and _valid_after(buf, ends, pos)):
                self._held_len = _declared_len(buf, pos)
                break
            else:
                self._skip(pos, 1)
                pos += 1
        else:
            self._held_len = 0
            if pos < len(buf):
                self._skip(pos, len(buf) - pos)
                pos = len(buf)
        out = taken if ends is None else _table(np.frombuffer(buf, dtype=np.uint8), taken)
        del buf[:pos]
        self._consumed += pos
        self.frames_out += len(out)
        return out


def split_stream(data: bytes) -> tuple[FrameTable, list[ResyncEvent], int]:
    """One-shot convenience over :class:`StreamSplitter` for a whole capture.

    Returns (frames, resync events, unresolved tail bytes).
    """
    splitter = StreamSplitter()
    frames = FrameTable.from_frames(splitter.feed(data)) + splitter.finish()
    return frames, splitter.resyncs, splitter.pending_bytes
