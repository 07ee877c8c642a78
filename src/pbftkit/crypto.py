"""Digests, signatures, MACs, and the mode-dependent authentication policy.

Three deployment modes trade signature cost for trust assumptions:

* ``PK_ONLY``        -- RSA-2048 signatures on every message.
* ``MAC_INTER_NODE`` -- pairwise HMACs between nodes, PK elsewhere.
* ``DOMAIN_OPTIMIZED`` -- HMACs on replies too; PK only on client requests,
  view changes, and periodic checkpoint block signatures.

Client requests are PK-signed in every mode (a MAC-only request channel
lets a malicious client show different-looking requests to different
replicas). MACs are HMAC-SHA-256 over 256-bit pairwise secrets; the signer
and MAC backends sit behind small wrappers so either primitive can be
swapped without touching callers.

PK replies are signed once per committed batch per replica: every REPLY of
the batch carries ``((0, sig), (0, D))``, where ``D`` concatenates the
envelope digests of the batch's replies in batch order and ``sig`` signs
``digest(D)``. A client checks that its own reply's digest is one of
``D``'s 32-byte chunks and that ``sig`` verifies; it learns the digests of
the other replies, never their contents. A lone reply carries the same
form with a one-digest ``D``. The client's keystore remembers the last
``(sig, D)`` verified per replica, so it runs RSA on a replica's batch
signature once however many of its own replies that batch holds. That
saves nothing at batch 1, or with one request per client in each batch.

Every driver, the client and the replica core apply the policy through
this module alone; the simulator and the pipeline through one per-frame
step, ``pipeline.Node``, which times :func:`hash_incoming` and
:func:`verify_hashed` (together :func:`verify_incoming`) as separate
stages, leaves REQUESTs to the core's :func:`verify_request`, and
authenticates a broadcast once: one signature, or one authenticator with a
tag per recipient. Without a keystore nothing is sealed or checked.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.exceptions import InvalidSignature

from . import wire
from .wire import MessageKind, Request, WireEnvelope, request_envelope

MAC_TAG_LEN = 32
MAC_KEY_LEN = 32
DIGEST_LEN = 32
RSA_BITS = 2048


class CryptoError(Exception):
    pass


class KeyMissing(CryptoError):
    pass


class CryptoMode(Enum):
    PK_ONLY = "pk_only"
    MAC_INTER_NODE = "mac_inter_node"
    DOMAIN_OPTIMIZED = "domain_optimized"


class MessageClass(Enum):
    CLIENT_REQUEST = "client_request"
    INTER_NODE = "inter_node"
    CLIENT_REPLY = "client_reply"
    VIEW_CHANGE_CLASS = "view_change"
    CHECKPOINT_BLOCK_SIG = "checkpoint_block_sig"


class AuthScheme(Enum):
    PK = "pk"
    MAC = "mac"
    NONE = "none"


_POLICY = {
    CryptoMode.PK_ONLY: {
        MessageClass.CLIENT_REQUEST: AuthScheme.PK,
        MessageClass.INTER_NODE: AuthScheme.PK,
        MessageClass.CLIENT_REPLY: AuthScheme.PK,
        MessageClass.VIEW_CHANGE_CLASS: AuthScheme.PK,
        MessageClass.CHECKPOINT_BLOCK_SIG: AuthScheme.NONE,
    },
    CryptoMode.MAC_INTER_NODE: {
        MessageClass.CLIENT_REQUEST: AuthScheme.PK,
        MessageClass.INTER_NODE: AuthScheme.MAC,
        MessageClass.CLIENT_REPLY: AuthScheme.PK,
        MessageClass.VIEW_CHANGE_CLASS: AuthScheme.PK,
        MessageClass.CHECKPOINT_BLOCK_SIG: AuthScheme.NONE,
    },
    CryptoMode.DOMAIN_OPTIMIZED: {
        MessageClass.CLIENT_REQUEST: AuthScheme.PK,
        MessageClass.INTER_NODE: AuthScheme.MAC,
        MessageClass.CLIENT_REPLY: AuthScheme.MAC,
        MessageClass.VIEW_CHANGE_CLASS: AuthScheme.PK,
        MessageClass.CHECKPOINT_BLOCK_SIG: AuthScheme.PK,
    },
}

_KIND_CLASS = {
    MessageKind.REQUEST: MessageClass.CLIENT_REQUEST,
    MessageKind.PRE_PREPARE: MessageClass.INTER_NODE,
    MessageKind.PREPARE: MessageClass.INTER_NODE,
    MessageKind.COMMIT: MessageClass.INTER_NODE,
    MessageKind.CHECKPOINT: MessageClass.INTER_NODE,
    MessageKind.REPLY: MessageClass.CLIENT_REPLY,
    MessageKind.VIEW_CHANGE: MessageClass.VIEW_CHANGE_CLASS,
    MessageKind.NEW_VIEW: MessageClass.VIEW_CHANGE_CLASS,
}


def required_auth(mode: CryptoMode, msg_class: MessageClass) -> AuthScheme:
    """The policy table entry. Total over all 3x5 (mode, class) pairs."""
    return _POLICY[mode][msg_class]


def classify(kind: MessageKind) -> MessageClass:
    return _KIND_CLASS[kind]


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# Built once: a fresh padding and hash object per call costs a few µs.
_PADDING = padding.PKCS1v15()
_HASH = hashes.SHA256()


def _sign_rsa(key, data: bytes) -> bytes:
    # PKCS#1 v1.5 is deterministic, which keeps golden fixtures stable.
    return key.sign(data, _PADDING, _HASH)


def _verify_rsa(pub, sig: bytes, data: bytes) -> bool:
    try:
        pub.verify(sig, data, _PADDING, _HASH)
        return True
    except InvalidSignature:
        return False


@dataclass
class KeyStore:
    """One principal's key material.

    Holds its own RSA private key, everyone's verification keys, and the
    pairwise MAC secrets for links involving ``own_id`` only.
    """

    own_id: int
    signing_key: object
    verify_keys: dict = field(default_factory=dict)  # id -> public key
    mac_keys: dict = field(default_factory=dict)  # peer id -> 32-byte secret
    # sender id -> the last (sig, digests) batch-reply pair verified for it:
    # at most one entry per key in verify_keys.
    reply_sigs: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def public_key(self):
        return self.signing_key.public_key()

    def sign(self, data: bytes) -> bytes:
        return _sign_rsa(self.signing_key, data)

    def verify(self, sender: int, sig: bytes, data: bytes) -> bool:
        pub = self.verify_keys.get(sender)
        if pub is None:
            return False
        return _verify_rsa(pub, sig, data)

    def mac(self, peer: int, data: bytes) -> bytes:
        key = self.mac_keys.get(peer)
        if key is None:
            raise KeyMissing(f"no pairwise secret for peer {peer}")
        return _hmac.digest(key, data, "sha256")


def envelope_digest(env: WireEnvelope) -> bytes:
    """SHA-256 over head + payload; excludes the auths and frame length."""
    return digest(env.signing_bytes())


def sign_request(req: Request, ks: KeyStore) -> Request:
    """``req`` signed by its client over the canonical REQUEST envelope."""
    return Request(req.client_id, req.request_id, req.payload,
                   ks.sign(envelope_digest(request_envelope(req))))


def verify_request(req: Request, ks: KeyStore) -> bool:
    """Whether ``req`` carries a valid signature of the client it names."""
    return ks is None or bool(req.signature) and ks.verify(
        req.client_id, req.signature, envelope_digest(request_envelope(req)))


def authenticate(env: WireEnvelope, recipients, mode: CryptoMode,
                 ks: KeyStore, d: bytes = None) -> tuple:
    """The wire auths ``((recipient, bytes), ...)`` the policy demands for
    this envelope.

    PK schemes yield one signature over the envelope digest ``d`` (computed
    when not given) regardless of recipient count, as ``((0, sig),)``; MAC
    schemes yield one tag per recipient. A PK REPLY gets the batch form of
    :func:`sign_replies` with a batch of one.
    """
    scheme = _POLICY[mode][_KIND_CLASS[env.kind]]
    if d is None:
        d = envelope_digest(env)
    if scheme is AuthScheme.MAC:
        return tuple((r, ks.mac(r, d)) for r in recipients)
    if env.kind is MessageKind.REPLY:
        return (0, ks.sign(digest(d))), (0, d)
    return ((0, ks.sign(d)),)


def sign_replies(envs, ks: KeyStore) -> tuple:
    """The wire auths ``((0, sig), (0, D))`` shared by every REPLY envelope
    of a committed batch: ``D`` concatenates their digests and ``sig``
    signs ``digest(D)``."""
    digests = b"".join([envelope_digest(env) for env in envs])
    return (0, ks.sign(digest(digests))), (0, digests)


def seal_replies(replies: list, mode: CryptoMode, ks: KeyStore) -> list:
    """A committed batch's REPLYs, sharing one signature when the mode signs
    replies; otherwise as given, for :func:`seal` to authenticate."""
    if (ks is None or _POLICY[mode][MessageClass.CLIENT_REPLY]
            is not AuthScheme.PK):
        return replies
    auths = sign_replies(replies, ks)
    return [env.with_auths(auths) for env in replies]


def block_signature(state_digest: bytes, mode: CryptoMode, ks: KeyStore):
    """The PK signature over a checkpointed state; None if the mode has
    none."""
    if (ks is None or _POLICY[mode][MessageClass.CHECKPOINT_BLOCK_SIG]
            is not AuthScheme.PK):
        return None
    return ks.sign(state_digest)


def attach(env: WireEnvelope, auths: tuple) -> WireEnvelope:
    """``env.with_auths(auths)``, for callers written against this name."""
    return env.with_auths(auths)


def sealable(env: WireEnvelope, ks: KeyStore) -> bool:
    """Whether :func:`seal` authenticates ``env``: a REQUEST or a signed PK
    REPLY already carries its authenticator."""
    return (ks is not None and not env.auths
            and env.kind is not MessageKind.REQUEST)


def sealed(env: WireEnvelope, dests, mode: CryptoMode,
           ks: KeyStore) -> WireEnvelope:
    """``env`` authenticated for ``dests`` as the policy says, when
    :func:`sealable`; otherwise as given."""
    if sealable(env, ks):
        env = env.with_auths(authenticate(env, dests, mode, ks))
    return env


def seal(env: WireEnvelope, dests, mode: CryptoMode, ks: KeyStore) -> bytes:
    """:func:`sealed` and encoded once: the same frame goes to every
    destination."""
    return wire.encode(sealed(env, dests, mode, ks))


def checked(env: WireEnvelope, ks: KeyStore) -> bool:
    """Whether :func:`verify_incoming` checks ``env`` (not a REQUEST)."""
    return ks is not None and env.kind is not MessageKind.REQUEST


def hash_incoming(env: WireEnvelope, mode: CryptoMode, ks: KeyStore) -> tuple:
    """The hash step of :func:`verify_incoming`: ``(scheme, digest,
    expected, offered)``; on a MAC link the tag computed for the sender and
    the one addressed to this principal, each None when missing."""
    scheme = _POLICY[mode][_KIND_CLASS[env.kind]]
    d = envelope_digest(env)
    expect = offered = None
    if scheme is AuthScheme.MAC:
        try:
            expect = ks.mac(env.sender, d)
        except KeyMissing:
            pass
        for recipient, tag in env.auths:
            if recipient == ks.own_id:
                offered = tag
                break
    return scheme, d, expect, offered


def verify_hashed(env: WireEnvelope, hashed: tuple, ks: KeyStore) -> bool:
    """The verify step: compare the tags or check the signature."""
    scheme, d, expect, offered = hashed
    if scheme is AuthScheme.MAC:
        return (expect is not None and offered is not None
                and _hmac.compare_digest(expect, offered))
    if env.kind is MessageKind.REPLY:
        return _verify_reply_signature(env, d, ks)
    return len(env.auths) == 1 and ks.verify(env.sender, env.auths[0][1], d)


def verify_incoming(env: WireEnvelope, mode: CryptoMode, ks: KeyStore) -> bool:
    """Check the envelope's authenticator. Rejection is a value, never an
    exception, so Byzantine input cannot crash the verify stage."""
    if not checked(env, ks):
        return True
    return verify_hashed(env, hash_incoming(env, mode, ks), ks)


def _verify_reply_signature(env: WireEnvelope, d: bytes, ks: KeyStore) -> bool:
    """The batch form of a PK REPLY: ``d`` must be one of the aligned
    digests the sender signed together.

    The signature is checked once per sender and batch: a pair equal to the
    last one verified for ``env.sender`` needs no RSA call, since
    verification is deterministic. The membership check still runs."""
    if len(env.auths) != 2:
        return False
    sig, digests = env.auths[0][1], env.auths[1][1]
    if len(digests) % DIGEST_LEN or not any(
            digests[i:i + DIGEST_LEN] == d
            for i in range(0, len(digests), DIGEST_LEN)):
        return False
    pair = (sig, digests)
    if ks.reply_sigs.get(env.sender) == pair:
        return True
    if not ks.verify(env.sender, sig, digest(digests)):
        return False
    ks.reply_sigs[env.sender] = pair
    return True


# ---------------------------------------------------------------------------
# Key generation and on-disk layout.
#
# keys/
#   node_<id>.pem        RSA-2048 private key (PKCS8, unencrypted)
#   node_<id>.pub.pem    matching public key
#   client_<id>.pem / client_<id>.pub.pem
#   pairwise.bin         records of [u16 i][u16 j][32-byte secret], i < j


def generate_keypair():
    return rsa.generate_private_key(public_exponent=65537, key_size=RSA_BITS)


def _write_keypair(outdir: Path, name: str, key):
    (outdir / f"{name}.pem").write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    (outdir / f"{name}.pub.pem").write_bytes(key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo))


def generate_deployment_keys(n: int, clients: int, outdir, force: bool = False):
    """Write a full deployment's keys: node/client RSA pairs plus pairwise
    secrets for every node-node and node-client link."""
    outdir = Path(outdir)
    if outdir.exists() and any(outdir.iterdir()) and not force:
        raise FileExistsError(f"{outdir} is not empty (use force)")
    outdir.mkdir(parents=True, exist_ok=True)
    node_ids = list(range(n))
    client_ids = [n + k for k in range(clients)]
    for i in node_ids:
        _write_keypair(outdir, f"node_{i}", generate_keypair())
    for c in client_ids:
        _write_keypair(outdir, f"client_{c}", generate_keypair())
    records = []
    for a in node_ids:
        for b in node_ids:
            if a < b:
                records.append((a, b))
        for c in client_ids:
            records.append((a, c))
    with open(outdir / "pairwise.bin", "wb") as fh:
        for a, b in records:
            fh.write(struct.pack("<HH", a, b) + os.urandom(MAC_KEY_LEN))
    return node_ids, client_ids


def _load_private(path: Path):
    return serialization.load_pem_private_key(path.read_bytes(), password=None)


def _load_public(path: Path):
    return serialization.load_pem_public_key(path.read_bytes())


def load_keystore(keydir, own_id: int) -> KeyStore:
    """Build the KeyStore for one principal from a keys directory.

    Loads every public key present and only the pairwise secrets whose link
    involves ``own_id``; other principals' private keys are never read.
    """
    keydir = Path(keydir)
    own = None
    verify_keys = {}
    for pub in keydir.glob("*.pub.pem"):
        pid = int(pub.stem.rsplit(".", 1)[0].split("_")[1])
        verify_keys[pid] = _load_public(pub)
        if pid == own_id:
            priv = keydir / pub.name.replace(".pub.pem", ".pem")
            own = _load_private(priv)
    if own is None:
        raise KeyMissing(f"no private key for id {own_id} in {keydir}")
    mac_keys = {}
    data = (keydir / "pairwise.bin").read_bytes()
    rec = 4 + MAC_KEY_LEN
    for off in range(0, len(data), rec):
        a, b = struct.unpack_from("<HH", data, off)
        secret = data[off + 4:off + rec]
        if a == own_id:
            mac_keys[b] = secret
        elif b == own_id:
            mac_keys[a] = secret
    return KeyStore(own_id, own, verify_keys, mac_keys)
