"""Codec: golden frames, round trips, fuzz, and framing."""

import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from pbftkit import wire
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.wire import (FrameBuffer, MessageKind, NewViewBody,
                          PrePrepareBody, ReplyBody, Request, ViewChangeBody,
                          WireEnvelope, batch_digest, decode, encode,
                          request_envelope)

GOLDEN_REQUEST_EMPTY = bytes.fromhex(
    "23000000"                              # frame length 35
    "00" "0000000000000000" "0000000000000000"  # kind, view, seq
    "0700" "0a000000"                       # sender 7, payload length 10
    "07000100000000000000"                  # canonical request bytes
    "0000")                                 # zero authenticators

GOLDEN_PREPARE = bytes.fromhex(
    "810000000203000000000000002a00000000000000020020000000"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "0200"
    "010020000101010101010101010101010101010101010101010101010101010101010101"
    "030020000202020202020202020202020202020202020202020202020202020202020202")


class TestGoldenFrames:
    def test_empty_request_frame_bytes(self):
        env = request_envelope(Request(7, 1, b""))
        assert encode(env) == GOLDEN_REQUEST_EMPTY

    def test_empty_request_lengths(self):
        frame = GOLDEN_REQUEST_EMPTY
        (frame_len,) = struct.unpack_from("<I", frame)
        assert frame_len == 35
        (payload_len,) = struct.unpack_from("<I", frame, 23)
        assert payload_len == 10

    def test_prepare_frame_bytes(self):
        env = WireEnvelope(MessageKind.PREPARE, 3, 42, 2, b"\xaa" * 32,
                           auths=((1, b"\x01" * 32), (3, b"\x02" * 32)))
        assert encode(env) == GOLDEN_PREPARE

    def test_sender_occupies_bytes_21_to_23(self):
        a = encode(WireEnvelope(MessageKind.COMMIT, 1, 2, 0x1234, b""))
        b = encode(WireEnvelope(MessageKind.COMMIT, 1, 2, 0x56F8, b""))
        diff = [i for i in range(len(a)) if a[i] != b[i]]
        assert diff == [21, 22]
        assert a[21:23] == struct.pack("<H", 0x1234)

    def test_golden_decodes_back(self):
        env = decode(GOLDEN_PREPARE)
        assert env.kind == MessageKind.PREPARE
        assert (env.view, env.seq, env.sender) == (3, 42, 2)
        assert env.payload == b"\xaa" * 32
        assert env.auths == ((1, b"\x01" * 32), (3, b"\x02" * 32))


envelope_fields = st.tuples(
    st.sampled_from(list(MessageKind)),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**16 - 1),
    st.binary(max_size=512),
    st.lists(st.tuples(st.integers(0, 2**16 - 1), st.binary(max_size=300)),
             max_size=4).map(tuple))
envelopes = envelope_fields.map(lambda fields: WireEnvelope(*fields))


@dataclass(frozen=True)
class DataclassEnvelope:
    """The envelope as a frozen dataclass: the reference for the slotted
    WireEnvelope's equality, hash and repr."""

    kind: MessageKind
    view: int
    seq: int
    sender: int
    payload: bytes = b""
    auths: tuple = ()


class TestSlottedEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(envelope_fields, envelope_fields, st.integers(0, 6))
    def test_behaves_like_the_dataclass(self, f1, f2, shared):
        f2 = f1[:shared] + f2[shared:]  # shared == 6 gives equal envelopes
        a, b = WireEnvelope(*f1), WireEnvelope(*f2)
        ref_a, ref_b = DataclassEnvelope(*f1), DataclassEnvelope(*f2)
        assert (a == b) == (ref_a == ref_b)
        assert (a != b) == (ref_a != ref_b)
        assert hash(a) == hash(ref_a)
        assert repr(a) == "WireEnvelope" + repr(ref_a)[len("DataclassEnvelope"):]
        assert a != ref_a
        back = decode(encode(a))
        assert back == a and hash(back) == hash(a)
        assert encode(back) == encode(a)

    @settings(max_examples=200, deadline=None)
    @given(envelopes, st.lists(st.tuples(st.integers(0, 2**16 - 1),
                                         st.binary(max_size=64)), max_size=3))
    def test_with_auths_keeps_signing_bytes(self, env, auths):
        signed = env.signing_bytes()
        for source in (env, decode(encode(env))):
            tagged = source.with_auths(auths)
            assert tagged.auths == tuple(auths)
            assert tagged.signing_bytes() == signed
            assert (tagged.kind, tagged.view, tagged.seq, tagged.sender,
                    tagged.payload) == (env.kind, env.view, env.seq,
                                        env.sender, env.payload)


class TestRoundTrip:
    @settings(max_examples=500, deadline=None)
    @given(envelopes)
    def test_encode_decode_identity(self, env):
        assert decode(encode(env)) == env

    @settings(max_examples=200, deadline=None)
    @given(envelopes)
    def test_signing_bytes_exclude_auths(self, env):
        assert env.signing_bytes() == env.with_auths(()).signing_bytes()

    def test_payload_too_large_rejected(self):
        env = WireEnvelope(MessageKind.REQUEST, 0, 0, 0,
                           b"x" * (wire.MAX_PAYLOAD + 1))
        with pytest.raises(wire.EncodeTooLarge):
            encode(env)


class TestDecodeFuzz:
    def test_random_bytes_never_crash(self):
        import random
        rng = random.Random(1337)
        crashes = 0
        decoded = 0
        for _ in range(10_000):
            blob = rng.randbytes(rng.randrange(0, 80))
            try:
                decode(blob)
                decoded += 1
            except wire.WireError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0

    def test_mutated_valid_frames_never_crash(self):
        import random
        rng = random.Random(7)
        base = bytearray(GOLDEN_PREPARE)
        for _ in range(10_000):
            blob = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            try:
                decode(bytes(blob))
            except wire.WireError:
                pass

    def test_unknown_kind(self):
        blob = bytearray(GOLDEN_PREPARE)
        blob[4] = 99
        with pytest.raises(wire.UnknownKind):
            decode(bytes(blob))

    def test_truncated(self):
        with pytest.raises(wire.Incomplete):
            decode(GOLDEN_PREPARE[:10])

    def test_oversized_frame_header(self):
        blob = struct.pack("<I", wire.MAX_FRAME) + b"\x00" * 16
        with pytest.raises(wire.FrameTooLarge):
            decode(blob)


class TestFrameBuffer:
    def test_reassembles_split_stream(self):
        frames = [encode(WireEnvelope(MessageKind.COMMIT, 0, s, 1, b"x" * s))
                  for s in range(5)]
        stream = b"".join(frames)
        buf = FrameBuffer()
        got = []
        for i in range(0, len(stream), 3):
            got.extend(buf.feed(stream[i:i + 3]))
        assert got == frames

    def test_single_feed(self):
        f = encode(WireEnvelope(MessageKind.REPLY, 1, 2, 3, b"abc"))
        assert FrameBuffer().feed(f + f) == [f, f]

    def test_rejects_oversized(self):
        buf = FrameBuffer()
        with pytest.raises(wire.FrameTooLarge):
            buf.feed(struct.pack("<I", wire.MAX_FRAME + 1))


class TestBodies:
    def test_request_canonical_bytes(self):
        assert Request(5, 9, b"hello").canonical_bytes() == bytes.fromhex(
            "0500090000000000000068656c6c6f")

    def test_batch_digest_golden(self):
        assert batch_digest((Request(5, 9, b"hello"),)).hex() == (
            "31a5bf26093d523a187632b2b95027e6085b457e63472d3090d536d37ab7741c")

    def test_batch_digest_order_sensitive(self):
        a, b = Request(1, 1, b"a"), Request(2, 2, b"b")
        assert batch_digest((a, b)) != batch_digest((b, a))

    def test_pre_prepare_round_trip(self):
        reqs = (Request(5, 9, b"hello", b"s" * 16), Request(6, 1, b""))
        body = PrePrepareBody.for_batch(reqs)
        back = PrePrepareBody.decode(body.encode())
        assert back.batch == reqs
        assert back.digest == body.digest

    def test_reply_round_trip(self):
        rb = ReplyBody(5, 9, 4, bytes(range(32)))
        assert ReplyBody.decode(rb.encode()) == rb

    def test_reply_golden(self):
        assert ReplyBody(5, 9, 4, bytes(range(32))).encode().hex() == (
            "05000900000000000000040000000000000000010203040506070809"
            "0a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")


u64 = st.integers(0, 2**64 - 1)
digests = st.binary(min_size=32, max_size=32)
requests = st.builds(Request, st.integers(0, 2**16 - 1), u64,
                     st.binary(max_size=40), st.binary(max_size=40))
batches = st.lists(requests, max_size=3).map(PrePrepareBody.for_batch)
view_changes = st.builds(
    ViewChangeBody, u64, u64,
    st.lists(st.tuples(u64, digests), max_size=3).map(tuple),
    st.lists(st.tuples(u64, u64, batches), max_size=3).map(tuple),
    st.lists(st.tuples(u64, digests, u64), max_size=3).map(tuple))
new_views = st.builds(
    NewViewBody, u64,
    st.lists(st.binary(max_size=200), max_size=4).map(tuple),
    st.lists(st.tuples(u64, digests), max_size=4).map(tuple))


def damaged(encoded, data):
    """A truncation of ``encoded`` or ``encoded`` plus trailing bytes."""
    if data.draw(st.booleans()):
        return encoded[:data.draw(st.integers(0, len(encoded) - 1))]
    return encoded + data.draw(st.binary(min_size=1, max_size=8))


class TestViewChangeBodies:
    @settings(max_examples=200, deadline=None)
    @given(view_changes)
    def test_view_change_round_trip(self, body):
        assert ViewChangeBody.decode(body.encode()) == body

    @settings(max_examples=200, deadline=None)
    @given(new_views)
    def test_new_view_round_trip(self, body):
        assert NewViewBody.decode(body.encode()) == body

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(view_changes, new_views), st.data())
    def test_damaged_bodies_raise_only_wire_errors(self, body, data):
        with pytest.raises(wire.WireError):
            type(body).decode(damaged(body.encode(), data))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(view_changes, new_views), st.data())
    def test_replica_counts_damaged_bodies_as_rejected(self, body, data):
        # Sent by view 1's leader for view 1, so only the body is at fault.
        rep = Replica(ReplicaConfig(n=4, f=1, self_id=2))
        kind = (MessageKind.VIEW_CHANGE if isinstance(body, ViewChangeBody)
                else MessageKind.NEW_VIEW)
        rep.on_envelope(WireEnvelope(kind, 1, 0, 1,
                                     damaged(body.encode(), data)))
        assert rep.counters["rejected"] == 1
        assert rep.view == 0 and rep.vc_messages == {}
