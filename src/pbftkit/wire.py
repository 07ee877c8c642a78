"""Protocol messages and the binary wire format.

Every message travels as a length-prefixed frame:

    [u32 frame_len][u8 kind][u64 view][u64 seq][u16 sender]
    [u32 payload_len][payload bytes]
    [u16 auth_count][per auth: u16 recipient, u16 auth_len, auth bytes]

All integers are little-endian. ``frame_len`` counts every byte after
itself. The payload is a kind-specific body; bodies are defined below and
encoded/decoded independently of the envelope so the envelope can treat
them as opaque bytes (digests and authenticators cover the envelope head
plus payload, never the auths themselves).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import IntEnum

MAX_PAYLOAD = 1 << 20  # 1 MiB application payload bound
MAX_FRAME = 2 << 20  # 2 MiB whole-frame bound

_HEAD = struct.Struct("<BQQHI")  # kind, view, seq, sender, payload_len
_PAYLOAD_START = 4 + _HEAD.size  # after the length prefix and the head
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_AUTH = struct.Struct("<HH")  # recipient, auth_len
_REQUEST_ID = struct.Struct("<HQ")  # client_id, request_id


class WireError(Exception):
    """Base class for codec failures."""


class EncodeTooLarge(WireError):
    pass


class Incomplete(WireError):
    """Frame or field is truncated."""


class UnknownKind(WireError):
    pass


class Malformed(WireError):
    """Declared lengths inconsistent with the bytes present."""


class FrameTooLarge(WireError):
    """Length prefix exceeds the frame bound; connection must be dropped."""


class MessageKind(IntEnum):
    REQUEST = 0
    PRE_PREPARE = 1
    PREPARE = 2
    COMMIT = 3
    REPLY = 4
    CHECKPOINT = 5
    VIEW_CHANGE = 6
    NEW_VIEW = 7


_KINDS = tuple(MessageKind)  # indexed by kind byte; the values run 0..7


@dataclass(slots=True, unsafe_hash=True)
class WireEnvelope:
    """One protocol message: head fields, opaque payload, authenticators.

    Treated as immutable, but not a frozen dataclass: a frozen one sets
    each field through ``object.__setattr__``, and the simulator builds
    hundreds of thousands per run.
    """

    kind: MessageKind
    view: int
    seq: int
    sender: int
    payload: bytes = b""
    auths: tuple = ()  # ((recipient, auth_bytes), ...)
    _sbytes: bytes = field(default=None, init=False, repr=False,
                           compare=False)

    def signing_bytes(self) -> bytes:
        """Bytes covered by digests/authenticators: head + payload, no auths."""
        sb = self._sbytes
        if sb is None:
            sb = self._sbytes = _HEAD.pack(
                self.kind, self.view, self.seq, self.sender,
                len(self.payload)) + self.payload
        return sb

    def with_auths(self, auths) -> "WireEnvelope":
        env = WireEnvelope(self.kind, self.view, self.seq, self.sender,
                           self.payload, tuple(auths))
        env._sbytes = self._sbytes  # auths are outside the signed region
        return env


def encode(env: WireEnvelope) -> bytes:
    if len(env.payload) > MAX_PAYLOAD:
        raise EncodeTooLarge(f"payload {len(env.payload)} > {MAX_PAYLOAD}")
    if not env.auths:  # head + payload + a zero auth count fit MAX_FRAME
        signed = env.signing_bytes()
        return _U32.pack(len(signed) + 2) + signed + b"\x00\x00"
    parts = [env.signing_bytes(), _U16.pack(len(env.auths))]
    for recipient, auth in env.auths:
        parts.append(_AUTH.pack(recipient, len(auth)))
        parts.append(auth)
    body = b"".join(parts)
    if 4 + len(body) > MAX_FRAME:
        raise EncodeTooLarge(f"frame {4 + len(body)} > {MAX_FRAME}")
    return _U32.pack(len(body)) + body


def decode(buf: bytes) -> WireEnvelope:
    """Decode one complete frame. Raises a typed WireError, never crashes."""
    size = len(buf)
    if size < 4:
        raise Incomplete("missing length prefix")
    (frame_len,) = _U32.unpack_from(buf)
    if frame_len > MAX_FRAME - 4:
        raise FrameTooLarge(str(frame_len))
    if size != 4 + frame_len:
        raise Incomplete(f"have {size - 4} of {frame_len} frame bytes")
    if frame_len < _HEAD.size + 2:
        raise Malformed("frame shorter than fixed header")
    kind_b, view, seq, sender, payload_len = _HEAD.unpack_from(buf, 4)
    if kind_b >= len(_KINDS):
        raise UnknownKind(f"kind byte {kind_b:#x}")
    if payload_len > frame_len - _HEAD.size - 2:
        raise Malformed("payload_len exceeds frame")
    signed_end = _PAYLOAD_START + payload_len
    (auth_count,) = _U16.unpack_from(buf, signed_end)
    off = signed_end + 2
    auths = []
    for _ in range(auth_count):
        if off + 4 > size:
            raise Malformed("truncated auth entry")
        recipient, auth_len = _AUTH.unpack_from(buf, off)
        off += 4
        if off + auth_len > size:
            raise Malformed("auth bytes exceed frame")
        auths.append((recipient, buf[off:off + auth_len]))
        off += auth_len
    if off != size:
        raise Malformed(f"{size - off} trailing bytes")
    env = WireEnvelope(_KINDS[kind_b], view, seq, sender,
                       buf[_PAYLOAD_START:signed_end], tuple(auths))
    # The signed region is a straight slice of the frame; seed the cache so
    # digest checks on received traffic skip re-encoding the head.
    env._sbytes = bytes(buf[4:signed_end])
    return env


class FrameBuffer:
    """Per-connection reassembly of length-prefixed frames from a byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        """Append stream bytes; return the list of every frame they complete
        (prefix included)."""
        self._buf += data
        frames = []
        while True:
            if len(self._buf) < 4:
                break
            (frame_len,) = struct.unpack_from("<I", self._buf)
            if frame_len > MAX_FRAME - 4:
                raise FrameTooLarge(str(frame_len))
            if len(self._buf) < 4 + frame_len:
                break
            frames.append(bytes(self._buf[:4 + frame_len]))
            del self._buf[:4 + frame_len]
        return frames


# ---------------------------------------------------------------------------
# Kind-specific bodies.


@dataclass(frozen=True, slots=True)
class Request:
    """A client operation: an opaque BLOB plus its identity.

    ``signature`` is the client's PK signature over the canonical REQUEST
    envelope head (see :func:`request_envelope`); it rides inside batches so
    followers can re-check authenticity of every batched request.
    """

    client_id: int
    request_id: int
    payload: bytes
    signature: bytes = b""

    def canonical_bytes(self) -> bytes:
        """Identity + payload, excluding the signature; what digests cover."""
        return _REQUEST_ID.pack(self.client_id, self.request_id) + self.payload


def request_envelope(req: Request) -> WireEnvelope:
    """The canonical envelope a client signs and sends (view/seq fixed at 0)."""
    auths = ((0, req.signature),) if req.signature else ()
    return WireEnvelope(MessageKind.REQUEST, 0, 0, req.client_id,
                        req.canonical_bytes(), auths)


def request_from_envelope(env: WireEnvelope) -> Request:
    if env.kind != MessageKind.REQUEST:
        raise Malformed(f"not a REQUEST: {env.kind!r}")
    if len(env.payload) < 10:
        raise Malformed("REQUEST payload shorter than its header")
    client_id, request_id = _REQUEST_ID.unpack_from(env.payload)
    sig = env.auths[0][1] if env.auths else b""
    return Request(client_id, request_id, env.payload[10:], sig)


def _pack_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def _unpack_bytes(buf: bytes, off: int):
    if off + 4 > len(buf):
        raise Malformed("truncated length field")
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    if off + n > len(buf):
        raise Malformed("length field exceeds buffer")
    return buf[off:off + n], off + n


def _encode_request_item(req: Request) -> bytes:
    return (_pack_bytes(req.canonical_bytes())
            + _U16.pack(len(req.signature)) + req.signature)


def _decode_request_item(buf: bytes, off: int):
    canon, off = _unpack_bytes(buf, off)
    if len(canon) < 10:
        raise Malformed("request item shorter than its header")
    if off + 2 > len(buf):
        raise Malformed("truncated signature length")
    (sig_len,) = _U16.unpack_from(buf, off)
    off += 2
    if off + sig_len > len(buf):
        raise Malformed("signature exceeds buffer")
    client_id, request_id = _REQUEST_ID.unpack_from(canon)
    return Request(client_id, request_id, canon[10:],
                   bytes(buf[off:off + sig_len])), off + sig_len


def batch_digest(batch) -> bytes:
    """SHA-256 over the concatenated canonical request encodings.

    Covers client_id/request_id, not just raw payloads, so a request cannot
    be replayed under another client's identity. The empty batch is the
    NOOP filler used in new-view gap entries.
    """
    h = hashlib.sha256()
    for req in batch:
        h.update(req.canonical_bytes())
    return h.digest()


@dataclass(frozen=True)
class PrePrepareBody:
    """A proposed batch; its digest is derived, never carried."""

    batch: tuple  # tuple[Request, ...]; empty only for the NOOP filler
    digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", batch_digest(self.batch))

    def encode(self) -> bytes:
        parts = [_U32.pack(len(self.batch))]
        parts += [_encode_request_item(r) for r in self.batch]
        return b"".join(parts)

    @classmethod
    def decode(cls, buf: bytes) -> "PrePrepareBody":
        if len(buf) < 4:
            raise Malformed("truncated batch count")
        (count,) = _U32.unpack_from(buf)
        off = 4
        batch = []
        for _ in range(count):
            req, off = _decode_request_item(buf, off)
            batch.append(req)
        if off != len(buf):
            raise Malformed("trailing bytes after batch")
        return cls(tuple(batch))


@dataclass(frozen=True)
class ReplyBody:
    """REPLY: the seq travels in the envelope."""

    client_id: int
    request_id: int
    result_digest: bytes  # digest of the committed request's canonical bytes

    _S = struct.Struct("<HQ32s")

    def encode(self) -> bytes:
        return self._S.pack(self.client_id, self.request_id,
                            self.result_digest)

    @classmethod
    def decode(cls, buf: bytes) -> "ReplyBody":
        if len(buf) != cls._S.size:
            raise Malformed("bad REPLY body length")
        return cls(*cls._S.unpack(buf))


_CHECKPOINT = struct.Struct("<Q32s")  # C entry: seq, state digest
_P_HEAD = struct.Struct("<QQ")  # P entry: seq, view; the batch body follows
_Q_ITEM = struct.Struct("<Q32sQ")  # Q entry: seq, digest, view
_ORDER = struct.Struct("<Q32s")  # O entry: seq, digest


def _unpack_items(buf: bytes, off: int, item: struct.Struct):
    """A u32 count then that many fixed-size ``item`` records."""
    if off + 4 > len(buf):
        raise Malformed("truncated item count")
    (count,) = _U32.unpack_from(buf, off)
    end = off + 4 + count * item.size
    if end > len(buf):
        raise Malformed("items exceed buffer")
    return tuple(item.iter_unpack(buf[off + 4:end])), end


@dataclass(frozen=True)
class ViewChangeBody:
    """VIEW_CHANGE(h, C, P, Q) of Castro & Liskov (ACM TOCS 20(4), 2002,
    §4.5), for the view its envelope names: claims, not certificates; only
    the envelope's signature vouches for them. C holds the stable
    checkpoint and any later one the sender took; P, per seq above h, the
    latest view the sender prepared in with that batch; Q each (seq,
    digest) it pre-prepared with the latest view.
    """

    last_stable_seq: int
    checkpoints: tuple  # ((seq, state digest), ...)
    prepared: tuple  # ((seq, view, PrePrepareBody), ...)
    pre_prepared: tuple  # ((seq, digest, view), ...)

    def encode(self) -> bytes:
        parts = [struct.pack("<QI", self.last_stable_seq,
                             len(self.checkpoints))]
        parts += [_CHECKPOINT.pack(*c) for c in self.checkpoints]
        parts.append(_U32.pack(len(self.prepared)))
        for seq, view, body in self.prepared:
            parts.append(_P_HEAD.pack(seq, view))
            parts.append(_pack_bytes(body.encode()))
        parts.append(_U32.pack(len(self.pre_prepared)))
        parts += [_Q_ITEM.pack(*q) for q in self.pre_prepared]
        return b"".join(parts)

    @classmethod
    def decode(cls, buf: bytes) -> "ViewChangeBody":
        if len(buf) < 8:
            raise Malformed("truncated view-change header")
        (last_stable,) = struct.unpack_from("<Q", buf)
        checkpoints, off = _unpack_items(buf, 8, _CHECKPOINT)
        if off + 4 > len(buf):
            raise Malformed("truncated prepared-set count")
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        prepared = []
        for _ in range(count):
            if off + _P_HEAD.size > len(buf):
                raise Malformed("truncated prepared entry")
            seq, view = _P_HEAD.unpack_from(buf, off)
            body, off = _unpack_bytes(buf, off + _P_HEAD.size)
            prepared.append((seq, view, PrePrepareBody.decode(body)))
        pre_prepared, off = _unpack_items(buf, off, _Q_ITEM)
        if off != len(buf):
            raise Malformed("trailing bytes after view change")
        return cls(last_stable, checkpoints, tuple(prepared), pre_prepared)


@dataclass(frozen=True)
class NewViewBody:
    """NEW_VIEW(V, O) for the view its envelope names: the VIEW_CHANGE
    frames decided over, auths included so followers re-verify and
    re-decide, each for that same view, and O as (seq, digest) pairs.
    Batch bodies travel only inside the VIEW_CHANGEs."""

    view_changes: tuple  # frames of 2f+1 to n VIEW_CHANGE envelopes
    reproposals: tuple  # ((seq, digest), ...) -- the set O, seq order

    def encode(self) -> bytes:
        parts = [_U16.pack(len(self.view_changes))]
        parts += [_pack_bytes(frame) for frame in self.view_changes]
        parts.append(_U32.pack(len(self.reproposals)))
        parts += [_ORDER.pack(*o) for o in self.reproposals]
        return b"".join(parts)

    @classmethod
    def decode(cls, buf: bytes) -> "NewViewBody":
        if len(buf) < 2:
            raise Malformed("truncated new-view header")
        (vc_count,) = _U16.unpack_from(buf)
        off = 2
        frames = []
        for _ in range(vc_count):
            frame, off = _unpack_bytes(buf, off)
            frames.append(bytes(frame))
        reproposals, off = _unpack_items(buf, off, _ORDER)
        if off != len(buf):
            raise Malformed("trailing bytes after reproposals")
        return cls(tuple(frames), reproposals)
