"""Authentication policy matrix, signatures, MACs, and key management."""

import hashlib

import pytest

from pbftkit import crypto
from pbftkit.crypto import (AuthScheme, CryptoMode, KeyStore, MessageClass,
                            classify, required_auth)
from pbftkit.simnet import build_keystores
from pbftkit.wire import MessageKind, ReplyBody, WireEnvelope


class TestDigest:
    def test_sha256_empty_vector(self):
        assert crypto.digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_sha256_abc_vector(self):
        assert crypto.digest(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_matches_hashlib(self):
        data = b"\x00\x01" * 500
        assert crypto.digest(data) == hashlib.sha256(data).digest()


# One row per (mode, message class); all 15 entries pinned.
POLICY_TABLE = [
    (CryptoMode.PK_ONLY, MessageClass.CLIENT_REQUEST, AuthScheme.PK),
    (CryptoMode.PK_ONLY, MessageClass.INTER_NODE, AuthScheme.PK),
    (CryptoMode.PK_ONLY, MessageClass.CLIENT_REPLY, AuthScheme.PK),
    (CryptoMode.PK_ONLY, MessageClass.VIEW_CHANGE_CLASS, AuthScheme.PK),
    (CryptoMode.PK_ONLY, MessageClass.CHECKPOINT_BLOCK_SIG, AuthScheme.NONE),
    (CryptoMode.MAC_INTER_NODE, MessageClass.CLIENT_REQUEST, AuthScheme.PK),
    (CryptoMode.MAC_INTER_NODE, MessageClass.INTER_NODE, AuthScheme.MAC),
    (CryptoMode.MAC_INTER_NODE, MessageClass.CLIENT_REPLY, AuthScheme.PK),
    (CryptoMode.MAC_INTER_NODE, MessageClass.VIEW_CHANGE_CLASS, AuthScheme.PK),
    (CryptoMode.MAC_INTER_NODE, MessageClass.CHECKPOINT_BLOCK_SIG,
     AuthScheme.NONE),
    (CryptoMode.DOMAIN_OPTIMIZED, MessageClass.CLIENT_REQUEST, AuthScheme.PK),
    (CryptoMode.DOMAIN_OPTIMIZED, MessageClass.INTER_NODE, AuthScheme.MAC),
    (CryptoMode.DOMAIN_OPTIMIZED, MessageClass.CLIENT_REPLY, AuthScheme.MAC),
    (CryptoMode.DOMAIN_OPTIMIZED, MessageClass.VIEW_CHANGE_CLASS,
     AuthScheme.PK),
    (CryptoMode.DOMAIN_OPTIMIZED, MessageClass.CHECKPOINT_BLOCK_SIG,
     AuthScheme.PK),
]


class TestPolicy:
    @pytest.mark.parametrize("mode,msg_class,expected", POLICY_TABLE)
    def test_required_auth_entry(self, mode, msg_class, expected):
        assert required_auth(mode, msg_class) == expected

    def test_table_is_total(self):
        assert len(POLICY_TABLE) == len(CryptoMode) * len(MessageClass) == 15

    def test_client_requests_signed_in_every_mode(self):
        for mode in CryptoMode:
            assert required_auth(mode, MessageClass.CLIENT_REQUEST) == \
                AuthScheme.PK

    def test_classify_covers_all_kinds(self):
        for kind in MessageKind:
            assert classify(kind) in MessageClass

    def test_view_change_kinds_are_view_change_class(self):
        assert classify(MessageKind.VIEW_CHANGE) == \
            MessageClass.VIEW_CHANGE_CLASS
        assert classify(MessageKind.NEW_VIEW) == MessageClass.VIEW_CHANGE_CLASS


@pytest.fixture(scope="module")
def stores():
    return build_keystores(4, [4, 5])


def _env(kind, sender=1, payload=b"p"):
    return WireEnvelope(kind, 0, 1, sender, payload)


class TestAuthenticateVerify:
    @pytest.mark.parametrize("mode", list(CryptoMode))
    @pytest.mark.parametrize("kind", [MessageKind.PREPARE, MessageKind.REPLY,
                                      MessageKind.VIEW_CHANGE])
    def test_round_trip(self, stores, mode, kind):
        env = _env(kind)
        auth = crypto.authenticate(env, [0, 2], mode, stores[1])
        signed = crypto.attach(env, auth)
        assert crypto.verify_incoming(signed, mode, stores[0])

    def test_mac_is_per_recipient(self, stores):
        env = _env(MessageKind.COMMIT)
        auth = crypto.authenticate(env, [0, 2, 3], CryptoMode.MAC_INTER_NODE,
                                   stores[1])
        assert isinstance(auth, crypto.MacVector)
        tags = dict(auth.tags)
        assert set(tags) == {0, 2, 3}
        assert len(set(tags.values())) == 3  # pairwise keys differ

    def test_pk_is_single_signature(self, stores):
        env = _env(MessageKind.COMMIT)
        auth = crypto.authenticate(env, [0, 2, 3], CryptoMode.PK_ONLY,
                                   stores[1])
        assert isinstance(auth, crypto.Signature)

    def test_wrong_recipient_mac_rejected(self, stores):
        env = _env(MessageKind.COMMIT)
        signed = crypto.attach(env, crypto.authenticate(
            env, [2], CryptoMode.MAC_INTER_NODE, stores[1]))
        assert not crypto.verify_incoming(signed, CryptoMode.MAC_INTER_NODE,
                                          stores[0])

    def test_sender_spoof_rejected(self, stores):
        env = _env(MessageKind.COMMIT, sender=1)
        signed = crypto.attach(env, crypto.authenticate(
            env, [0], CryptoMode.MAC_INTER_NODE, stores[2]))  # 2 forges as 1
        assert not crypto.verify_incoming(signed, CryptoMode.MAC_INTER_NODE,
                                          stores[0])

    def test_missing_auth_rejected(self, stores):
        for mode in (CryptoMode.PK_ONLY, CryptoMode.MAC_INTER_NODE):
            assert not crypto.verify_incoming(_env(MessageKind.COMMIT), mode,
                                              stores[0])

    def test_bit_flips_always_rejected(self, stores):
        import random
        rng = random.Random(99)
        env = _env(MessageKind.PREPARE, payload=b"\x11" * 32)
        signed = crypto.attach(env, crypto.authenticate(
            env, [0], CryptoMode.MAC_INTER_NODE, stores[1]))
        tag = bytearray(signed.auths[0][1])
        for _ in range(64):
            mutated = bytearray(tag)
            mutated[rng.randrange(len(tag))] ^= 1 << rng.randrange(8)
            bad = env.with_auths(((0, bytes(mutated)),))
            assert not crypto.verify_incoming(bad, CryptoMode.MAC_INTER_NODE,
                                              stores[0])

    def test_payload_tamper_rejected(self, stores):
        env = _env(MessageKind.PREPARE, payload=b"\x11" * 32)
        signed = crypto.attach(env, crypto.authenticate(
            env, [0], CryptoMode.PK_ONLY, stores[1]))
        tampered = WireEnvelope(signed.kind, signed.view, signed.seq,
                                signed.sender, b"\x22" * 32, signed.auths)
        assert not crypto.verify_incoming(tampered, CryptoMode.PK_ONLY,
                                          stores[0])

    def test_signature_deterministic(self, stores):
        # PKCS#1 v1.5 padding keeps golden fixtures stable
        assert stores[0].sign(b"data") == stores[0].sign(b"data")


def _reply(rid, sender=1):
    body = ReplyBody(4, rid, 1, bytes([rid]) * 32).encode()
    return WireEnvelope(MessageKind.REPLY, 0, 1, sender, body)


def _signed_over(env, digests, signer):
    """``env`` with a well-formed reply authenticator: ``signer``'s
    signature over ``digest(digests)`` next to ``digests``."""
    return env.with_auths(((0, signer.sign(crypto.digest(digests))),
                           (0, digests)))


class TestReplySignature:
    """A PK REPLY carries one signature over the batch's reply digests."""

    def check(self, env, stores):
        return crypto.verify_incoming(env, CryptoMode.PK_ONLY, stores[4])

    def test_batch_shares_one_signature_and_each_verifies(self, stores):
        envs = [_reply(rid) for rid in range(3)]
        auth = crypto.sign_replies(envs, stores[1])
        signed = [crypto.attach(env, auth) for env in envs]
        assert len({env.auths for env in signed}) == 1
        assert signed[0].auths[1][1] == b"".join(
            crypto.envelope_digest(env) for env in envs)
        assert all(self.check(env, stores) for env in signed)

    def test_lone_reply_sealed_by_authenticate_verifies(self, stores):
        env = _reply(0)
        signed = crypto.attach(env, crypto.authenticate(
            env, [4], CryptoMode.PK_ONLY, stores[1]))
        assert signed.auths[1] == (0, crypto.envelope_digest(env))
        assert self.check(signed, stores)

    def test_digest_missing_rejected(self, stores):
        others = b"".join(crypto.envelope_digest(_reply(r)) for r in (1, 2))
        assert self.check(_signed_over(_reply(0), others, stores[1]),
                          stores) is False

    def test_digest_only_at_unaligned_offset_rejected(self, stores):
        env = _reply(0)
        digests = b"\x00" * 16 + crypto.envelope_digest(env) + b"\x00" * 16
        assert self.check(_signed_over(env, digests, stores[1]),
                          stores) is False

    def test_digests_length_not_a_multiple_of_32_rejected(self, stores):
        env = _reply(0)
        digests = crypto.envelope_digest(env) + b"\x00"
        assert self.check(_signed_over(env, digests, stores[1]),
                          stores) is False

    def test_empty_digests_rejected(self, stores):
        assert self.check(_signed_over(_reply(0), b"", stores[1]),
                          stores) is False

    def test_digests_changed_after_signing_rejected(self, stores):
        envs = [_reply(0), _reply(1)]
        signed = crypto.attach(envs[0], crypto.sign_replies(envs, stores[1]))
        (_, sig), (_, digests) = signed.auths
        changed = digests[:32] + crypto.envelope_digest(_reply(2))
        bad = envs[0].with_auths(((0, sig), (0, changed)))
        assert self.check(bad, stores) is False

    def test_signature_by_another_replica_rejected(self, stores):
        env = _reply(0, sender=1)
        forged = crypto.attach(env, crypto.sign_replies([env], stores[2]))
        assert self.check(forged, stores) is False

    def test_authenticator_moved_to_another_batch_rejected(self, stores):
        auth = crypto.sign_replies([_reply(0), _reply(1)], stores[1])
        moved = crypto.attach(_reply(2), auth)
        assert self.check(moved, stores) is False

    def test_single_auth_entry_rejected(self, stores):
        env = _reply(0)
        signed = crypto.attach(env, crypto.sign_replies([env], stores[1]))
        assert self.check(env.with_auths(signed.auths[:1]), stores) is False


class TestReplySignatureRecord:
    """A client keystore records the last batch signature it verified per
    replica; the record accepts nothing a fresh check would reject."""

    @pytest.fixture
    def recorded(self, stores):
        """A fresh client keystore that has verified replica 1's batch of
        two replies; returns it with the signed replies."""
        ks = crypto.KeyStore(4, stores[4].signing_key, stores[4].verify_keys)
        envs = [_reply(0), _reply(1)]
        auth = crypto.sign_replies(envs, stores[1])
        signed = [crypto.attach(env, auth) for env in envs]
        assert crypto.verify_incoming(signed[0], CryptoMode.PK_ONLY, ks)
        assert ks.reply_sigs == {1: (auth.value, auth.digests)}
        return ks, signed

    def check(self, env, ks):
        return crypto.verify_incoming(env, CryptoMode.PK_ONLY, ks)

    def test_same_digests_corrupted_signature_rejected(self, recorded):
        ks, signed = recorded
        (_, sig), (_, digests) = signed[1].auths
        bad = bytearray(sig)
        bad[0] ^= 1
        assert self.check(signed[1].with_auths(((0, bytes(bad)),
                                                (0, digests))), ks) is False

    def test_reply_not_in_digests_rejected(self, recorded):
        ks, signed = recorded
        assert self.check(_reply(2).with_auths(signed[0].auths), ks) is False

    def test_recorded_pair_under_another_sender_rejected(self, stores):
        # Replica 1 signs a batch that holds a reply naming replica 2; the
        # pair verified for replica 1 does not vouch for replica 2.
        ks = crypto.KeyStore(4, stores[4].signing_key, stores[4].verify_keys)
        envs = [_reply(0, sender=1), _reply(1, sender=2)]
        auth = crypto.sign_replies(envs, stores[1])
        assert self.check(crypto.attach(envs[0], auth), ks)
        assert self.check(crypto.attach(envs[1], auth), ks) is False
        assert list(ks.reply_sigs) == [1]

    def test_newer_batch_replaces_the_entry(self, recorded, stores):
        ks, signed = recorded
        newer = [_reply(2), _reply(3)]
        auth = crypto.sign_replies(newer, stores[1])
        assert self.check(crypto.attach(newer[0], auth), ks)
        assert ks.reply_sigs == {1: (auth.value, auth.digests)}
        assert self.check(signed[1], ks)  # the older batch verifies afresh


class TestKeyFiles:
    def test_layout_and_counts(self, tmp_path):
        crypto.generate_deployment_keys(4, 1, tmp_path / "keys")
        keydir = tmp_path / "keys"
        assert len(list(keydir.glob("node_*.pem"))) == 8  # 4 priv + 4 pub
        assert len(list(keydir.glob("client_*.pem"))) == 2
        data = (keydir / "pairwise.bin").read_bytes()
        record = 4 + crypto.MAC_KEY_LEN
        assert len(data) % record == 0
        # C(4,2) node pairs + 4 node-client links
        assert len(data) // record == 6 + 4

    def test_inter_node_secret_count_at_15(self, tmp_path, monkeypatch):
        # Avoid 15 slow RSA generations; pairwise records are the point.
        from pbftkit.simnet import _pooled_keys
        keys = iter(_pooled_keys(16))
        monkeypatch.setattr(crypto, "generate_keypair", lambda: next(keys))
        crypto.generate_deployment_keys(15, 1, tmp_path / "keys")
        data = (tmp_path / "keys" / "pairwise.bin").read_bytes()
        count = len(data) // (4 + crypto.MAC_KEY_LEN)
        assert count == 105 + 15  # C(15,2) inter-node + node-client links

    def test_refuses_nonempty_outdir(self, tmp_path):
        out = tmp_path / "keys"
        out.mkdir()
        (out / "junk").write_text("x")
        with pytest.raises(FileExistsError):
            crypto.generate_deployment_keys(4, 1, out)
        crypto.generate_deployment_keys(4, 1, out, force=True)

    def test_load_keystore_round_trip(self, tmp_path):
        crypto.generate_deployment_keys(4, 1, tmp_path / "keys")
        ks1 = crypto.load_keystore(tmp_path / "keys", 1)
        ks2 = crypto.load_keystore(tmp_path / "keys", 2)
        assert ks2.verify(1, ks1.sign(b"m"), b"m")
        assert ks1.mac(2, b"m") == ks2.mac(1, b"m")
        assert set(ks1.mac_keys) == {0, 2, 3, 4}

    def test_load_keystore_missing_id(self, tmp_path):
        crypto.generate_deployment_keys(4, 0, tmp_path / "keys")
        with pytest.raises(crypto.KeyMissing):
            crypto.load_keystore(tmp_path / "keys", 9)
