"""Client sessions: reply quorums, policy checks, and retransmission."""

import pytest

from pbftkit import crypto
from pbftkit.client import ClientSession, RequestFailed
from pbftkit.crypto import CryptoMode
from pbftkit.simnet import build_keystores
from pbftkit.wire import MessageKind, ReplyBody, WireEnvelope


def make_session(mode=CryptoMode.DOMAIN_OPTIMIZED, **kw):
    return ClientSession(4, 4, 1, mode, **kw)


def reply(rid, sender, digest=b"\x07" * 32, view=0, seq=1, client=4):
    body = ReplyBody(client, rid, seq, digest)
    return WireEnvelope(MessageKind.REPLY, view, seq, sender, body.encode())


class TestQuorum:
    def test_needs_f_plus_one_matching(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, sender=0), 1.0) is None
        done = sess.on_reply(reply(0, sender=1), 2.0)
        assert done is not None
        assert done.request_id == 0
        assert done.latency == pytest.approx(2.0)

    def test_mismatched_digests_do_not_combine(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, 0, digest=b"\xaa" * 32), 1.0) is None
        assert sess.on_reply(reply(0, 1, digest=b"\xbb" * 32), 1.0) is None
        # the second digest reaches f+1 on its own
        done = sess.on_reply(reply(0, 2, digest=b"\xbb" * 32), 1.0)
        assert done.result_digest == b"\xbb" * 32

    def test_same_replica_cannot_vote_twice(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, 0), 1.0) is None
        assert sess.on_reply(reply(0, 0), 1.0) is None

    def test_unknown_request_ignored(self):
        sess = make_session()
        assert sess.on_reply(reply(9, 0), 1.0) is None

    def test_other_clients_reply_ignored(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, 0, client=5), 1.0) is None
        assert sess.on_reply(reply(0, 1, client=5), 1.0) is None

    def test_out_of_range_sender_ignored(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, sender=7), 1.0) is None

    def test_leader_tracked_from_reply_view(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        sess.on_reply(reply(0, 0, view=5), 1.0)
        assert sess.on_reply(reply(0, 1, view=5), 1.0) is not None
        assert sess.believed_leader == 1  # 5 mod 4

    def test_one_reply_does_not_move_the_leader(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, 3, view=7), 1.0) is None
        assert sess.believed_leader == 0
        # At quorum the client follows the (f+1)-th highest view: one
        # faulty replica naming view 7 cannot point it at replica 3.
        assert sess.on_reply(reply(0, 1, view=0), 1.0) is not None
        assert sess.believed_leader == 0
        assert sess.make_request(b"z", 1.0)[2] == 0


class TestRequestIds:
    def test_monotone_and_unique(self):
        sess = make_session()
        rids = [sess.make_request(b"x", 0.0)[0].request_id for _ in range(5)]
        assert rids == [0, 1, 2, 3, 4]

    def test_request_signed_when_keyed(self):
        stores = build_keystores(4, [4])
        sess = make_session(keystore=stores[4])
        req, env, _ = sess.make_request(b"x", 0.0)
        assert req.signature != b""


@pytest.fixture(scope="module")
def stores():
    return build_keystores(4, [4])


class TestReplyVerification:
    def signed_reply(self, stores, mode, rid=0, sender=0, tamper=False):
        env = reply(rid, sender)
        auth = crypto.authenticate(env, [4], mode, stores[sender])
        env = crypto.attach(env, auth)
        if tamper:
            tag = bytearray(env.auths[0][1])
            tag[0] ^= 1
            env = env.with_auths(((env.auths[0][0], bytes(tag)),))
        return env

    @pytest.mark.parametrize("mode", list(CryptoMode))
    def test_valid_reply_accepted(self, stores, mode):
        sess = make_session(mode, keystore=stores[4])
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(self.signed_reply(stores, mode, sender=0),
                             1.0) is None
        assert sess.on_reply(self.signed_reply(stores, mode, sender=1),
                             1.0) is not None

    @pytest.mark.parametrize("mode", list(CryptoMode))
    def test_tampered_reply_rejected(self, stores, mode):
        sess = make_session(mode, keystore=stores[4])
        sess.make_request(b"x", 0.0)
        bad = self.signed_reply(stores, mode, tamper=True)
        assert sess.on_reply(bad, 1.0) is None
        assert not sess.pending[0].replies

    def test_unauthenticated_reply_rejected(self, stores):
        sess = make_session(CryptoMode.PK_ONLY, keystore=stores[4])
        sess.make_request(b"x", 0.0)
        assert sess.on_reply(reply(0, 0), 1.0) is None

    def test_scheme_mismatch_rejected(self, stores):
        # DOMAIN_OPTIMIZED replies must be MACs; a signature is refused
        # even though it would verify, because policy is part of the check.
        sess = make_session(CryptoMode.DOMAIN_OPTIMIZED, keystore=stores[4])
        sess.make_request(b"x", 0.0)
        env = self.signed_reply(stores, CryptoMode.PK_ONLY)
        assert not sess.verify_reply(env)

    def test_mac_for_wrong_recipient_rejected(self, stores):
        stores5 = build_keystores(4, [4, 5])
        sess = ClientSession(4, 4, 1, CryptoMode.DOMAIN_OPTIMIZED,
                             keystore=stores5[4])
        sess.make_request(b"x", 0.0)
        env = reply(0, 0)
        env = crypto.attach(env, crypto.authenticate(
            env, [5], CryptoMode.DOMAIN_OPTIMIZED, stores5[0]))
        assert sess.on_reply(env, 1.0) is None


class TestRetransmission:
    def test_timeout_broadcasts_and_rotates_leader(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        dests, env = sess.on_timeout(0)
        assert dests == (0, 1, 2, 3)
        assert env.kind == MessageKind.REQUEST
        assert sess.believed_leader == 1

    def test_budget_exhaustion_raises(self):
        sess = make_session(retransmit_limit=3)
        sess.make_request(b"x", 0.0)
        for _ in range(3):
            sess.on_timeout(0)
        with pytest.raises(RequestFailed):
            sess.on_timeout(0)
        assert 0 not in sess.pending

    def test_timeout_after_completion_is_noop(self):
        sess = make_session()
        sess.make_request(b"x", 0.0)
        sess.on_reply(reply(0, 0), 1.0)
        sess.on_reply(reply(0, 1), 1.0)
        assert sess.on_timeout(0) is None
