"""One authentication path: the drivers take the same accept/reject decision
on the same frames, and the policy is applied in ``crypto`` alone."""

import ast
import time
from pathlib import Path

import pytest

from pbftkit import crypto, wire
from pbftkit.bench.inline import InlineCluster
from pbftkit.crypto import CryptoMode
from pbftkit.pipeline import PipelineConfig, run_pipeline
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.simnet import SimConfig, World, build_keystores
from pbftkit.tcpnet import LoopbackFabric
from pbftkit.wire import MessageKind, Request, WireEnvelope, request_envelope

N, CLIENTS = 4, (4, 5)
SRC = Path(__file__).resolve().parents[1] / "src" / "pbftkit"


def wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


def frames(mode, stores):
    """(name, sender, frame, expected decision) for delivery to replica 0."""
    prepare = WireEnvelope(MessageKind.PREPARE, 0, 1, 1, b"\x11" * 32)
    spoofed = WireEnvelope(MessageKind.PREPARE, 0, 1, 2, b"\x11" * 32)
    vc = WireEnvelope(MessageKind.VIEW_CHANGE, 1, 0, 1, b"junk")
    sig = stores[1].sign(crypto.envelope_digest(vc))
    # Client 5 signs a request in client 4's name.
    req = request_envelope(Request(4, 0, b"x"))
    forged = req.with_auths(((0, stores[5].sign(
        crypto.envelope_digest(req))),))
    mac = crypto.required_auth(mode, crypto.MessageClass.INTER_NODE) \
        is crypto.AuthScheme.MAC
    return [
        ("valid", 1, crypto.seal(prepare, (0, 2, 3), mode, stores[1]),
         "accept"),
        ("tag for another replica", 1,
         crypto.seal(prepare, (2, 3), mode, stores[1]),
         "transport" if mac else "accept"),
        ("spoofed sender", 2, crypto.seal(spoofed, (0, 3), mode, stores[1]),
         "transport"),
        ("no authenticators", 1, wire.encode(prepare), "transport"),
        ("two PK entries", 1,
         wire.encode(vc.with_auths(((0, sig), (0, sig)))), "transport"),
        ("bad client signature", 4, wire.encode(forged), "core"),
    ]


class Spy:
    """Stands in for ``replica.on_envelope`` and records, per envelope the
    core receives, whether the core counted it rejected."""

    def __init__(self, replica):
        self.replica, self.inner, self.verdicts = (replica,
                                                   replica.on_envelope, [])
        replica.on_envelope = self

    def __call__(self, env):
        before = self.replica.counters["rejected"]
        out = self.inner(env)
        self.verdicts.append("core" if self.replica.counters["rejected"]
                             > before else "accept")
        return out


def world_decisions(mode, items):
    world = World(SimConfig(mode=mode, num_clients=len(CLIENTS)))
    spy = Spy(world.nodes[0].replica)
    result = []
    for _, src, frame, _ in items:
        seen = len(spy.verdicts)
        world._handle(("deliver", src, 0, wire.decode(frame)))
        result.append(spy.verdicts[-1] if len(spy.verdicts) > seen
                      else "transport")
    return result


def inline_decisions(mode, items):
    cluster = InlineCluster(N, 1, mode, num_clients=len(CLIENTS))
    spy = Spy(cluster.replicas[0])
    result = []
    for _, _, frame, _ in items:
        seen = len(spy.verdicts)
        cluster.deliver(0, frame)
        result.append(spy.verdicts[-1] if len(spy.verdicts) > seen
                      else "transport")
    return result


def pipeline_decisions(mode, items, stores):
    hub = LoopbackFabric(list(range(N)) + list(CLIENTS))
    replica = Replica(ReplicaConfig(n=N, f=1, self_id=0, mode=mode),
                      keystore=stores[0])
    spy = Spy(replica)
    pipe = run_pipeline(PipelineConfig(), hub.port(0), replica, mode=mode,
                        keystore=stores[0])
    result = []
    try:
        for _, src, frame, _ in items:
            seen, rejected = len(spy.verdicts), pipe.rejected
            hub.deliver(src, 0, frame)
            assert wait_for(lambda: len(spy.verdicts) > seen
                            or pipe.rejected > rejected)
            result.append(spy.verdicts[-1] if len(spy.verdicts) > seen
                          else "transport")
    finally:
        pipe.stop()
        hub.close()
    return result


@pytest.mark.parametrize("mode", list(CryptoMode), ids=lambda m: m.name)
def test_drivers_agree_on_every_frame(mode):
    stores = build_keystores(N, CLIENTS)
    items = frames(mode, stores)
    expected = [(name, want) for name, _, _, want in items]
    names = [name for name, _, _, _ in items]
    for driver in (world_decisions(mode, items),
                   inline_decisions(mode, items),
                   pipeline_decisions(mode, items, stores)):
        assert list(zip(names, driver)) == expected


def policy_calls(tree):
    """Calls that apply the authentication policy outside ``crypto``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name == "hmac" for alias in node.names):
            yield node.lineno, "import hmac"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("sign", "verify", "mac", "required_auth"):
                yield node.lineno, func.attr
            elif isinstance(func.value, ast.Name) and func.value.id == "hmac":
                yield node.lineno, f"hmac.{func.attr}"
        elif isinstance(func, ast.Name) and func.id == "required_auth":
            yield node.lineno, func.id


def test_policy_applied_in_crypto_alone():
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "crypto.py"
             for line, what in policy_calls(ast.parse(path.read_text()))]
    assert found == []
