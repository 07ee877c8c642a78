"""One authentication path: the drivers take the same accept/reject decision
on the same frames, the policy is applied in ``crypto`` alone, one
per-frame step (``pipeline.Node``) applies it for both drivers, only the
simulator and the pipeline drive the replica core, only the step runs a
replica's timeout, no module but ``replica`` reads a replica's log or writes
into its counters, the bench harness starts no thread of its own, and no
module under ``src`` imports a name it does not use."""

import ast
import time
from pathlib import Path

import pytest

from pbftkit import crypto, wire
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
    """(name, sender, frame, decision with keystores, decision without) for
    delivery to replica 0. Without a keystore no driver checks a frame and
    the core checks no client signature."""
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
         "accept", "accept"),
        ("tag for another replica", 1,
         crypto.seal(prepare, (2, 3), mode, stores[1]),
         "transport" if mac else "accept", "accept"),
        ("spoofed sender", 2, crypto.seal(spoofed, (0, 3), mode, stores[1]),
         "transport", "accept"),
        ("no authenticators", 1, wire.encode(prepare), "transport", "accept"),
        # The core rejects the junk VIEW_CHANGE body.
        ("two PK entries", 1,
         wire.encode(vc.with_auths(((0, sig), (0, sig)))), "transport",
         "core"),
        ("bad client signature", 4, wire.encode(forged), "core", "accept"),
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


def world_decisions(mode, items, auth):
    world = World(SimConfig(mode=mode, auth=auth, num_clients=len(CLIENTS)))
    spy = Spy(world.nodes[0].replica)
    result = []
    for _, src, frame, *_ in items:
        seen = len(spy.verdicts)
        world._handle(("deliver", src, 0, wire.decode(frame)))
        result.append(spy.verdicts[-1] if len(spy.verdicts) > seen
                      else "transport")
    return result


def pipeline_decisions(mode, items, keystore):
    hub = LoopbackFabric(list(range(N)) + list(CLIENTS))
    replica = Replica(ReplicaConfig(n=N, f=1, self_id=0, mode=mode),
                      keystore=keystore)
    spy = Spy(replica)
    pipe = run_pipeline(PipelineConfig(), hub.port(0), replica)
    result = []
    try:
        for _, src, frame, *_ in items:
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


@pytest.mark.parametrize(
    "mode", [*CryptoMode, pytest.param(None, id="auth_off")],
    ids=lambda m: m.name)
def test_drivers_agree_on_every_frame(mode):
    auth = mode is not None
    mode = mode or CryptoMode.MAC_INTER_NODE
    stores = build_keystores(N, CLIENTS)
    items = frames(mode, stores)
    expected = [(name, on if auth else off)
                for name, _, _, on, off in items]
    names = [name for name, *_ in items]
    for driver in (world_decisions(mode, items, auth),
                   pipeline_decisions(mode, items,
                                      stores[0] if auth else None)):
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


def core_calls(tree, scope=()):
    """(scope, line, name) for each call that drives a replica core:
    ``on_envelope`` and ``on_timeout`` on anything but a client session,
    whose ``on_timeout`` retransmits. ``scope`` names the enclosing classes
    and functions."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("on_envelope", "on_timeout")):
            receiver = node.func.value
            if not (isinstance(receiver, ast.Attribute)
                    and receiver.attr == "session"):
                yield scope, node.lineno, node.func.attr
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield from core_calls(node, scope + (node.name,))
        else:
            yield from core_calls(node, scope)


def test_replica_core_driven_by_simulator_and_pipeline_alone():
    drivers = {Path(p) for p in ("replica.py", "simnet.py", "pipeline.py")}
    calls = [(path.relative_to(SRC), scope, line, what)
             for path in sorted(SRC.rglob("*.py"))
             for scope, line, what in core_calls(ast.parse(path.read_text()))]
    found = [f"{path}:{line}: {what}" for path, _, line, what in calls
             if path not in drivers]
    assert found == []
    # The step decides which timer is live, so no driver may run a
    # replica's timeout around it.
    timeouts = [(str(path), scope) for path, scope, _, what in calls
                if what == "on_timeout"]
    assert timeouts == [("pipeline.py", ("Node", "timeout"))]


def replica_state_uses(tree):
    """(line, what) for each read of a replica's log (``<expr>.replica.log``)
    and each write into a ``counters`` dict, by item or as a whole."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if (node.attr == "log" and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "replica"):
                yield node.lineno, "replica.log"
            elif node.attr == "counters" and not isinstance(node.ctx,
                                                            ast.Load):
                yield node.lineno, "counters ="
        elif (isinstance(node, ast.Subscript)
              and not isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "counters"):
            yield node.lineno, "counters[...] ="


def test_replica_state_kept_in_replica_alone():
    # A driver takes commits from ``Node.on_commit`` and finds the frames
    # that failed the step's check in ``Node.rejected``; the log and the
    # core's counters are the replica's own.
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "replica.py"
             for line, what in replica_state_uses(ast.parse(path.read_text()))]
    assert found == []


def thread_constructions(tree):
    """Lines that construct a ``Thread``, as ``threading.Thread`` or by a
    name imported from ``threading``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "Thread" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            yield node.lineno


def test_bench_harness_starts_no_thread():
    # One load loop on the caller's thread drives every client; the only
    # threads a bench run has are the ones the pipelines and fabrics start.
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted((SRC / "bench").rglob("*.py"))
             for line in thread_constructions(ast.parse(path.read_text()))]
    assert found == []


# The per-frame steps of the policy; ``verify_incoming`` is the hash and
# verify steps in one.
STEP = {"checked", "hash_incoming", "verify_hashed", "sealable",
        "authenticate", "seal"}


def step_uses(tree, cls=None):
    """(class, line, name) for each ``crypto.<name>`` reference, called or
    passed (``Node`` meters the steps by reference), and each name imported
    from ``crypto``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from step_uses(node, node.name)
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "crypto"):
            yield cls, node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "crypto":
            for alias in node.names:
                yield cls, node.lineno, alias.name
        yield from step_uses(node, cls)


def test_one_per_frame_step():
    uses = [(path.relative_to(SRC), cls, line, name)
            for path in sorted(SRC.rglob("*.py"))
            if path != SRC / "crypto.py"
            for cls, line, name in step_uses(ast.parse(path.read_text()))]
    in_node = {name for path, cls, _, name in uses
               if (str(path), cls) == ("pipeline.py", "Node")} & STEP
    assert in_node == STEP - {"seal"}
    found = [f"{path}:{line}: {cls}: {name}" for path, cls, line, name in uses
             if (name in STEP and (str(path), cls) != ("pipeline.py", "Node"))
             or (name == "verify_incoming" and str(path) == "simnet.py")]
    assert found == []


def unused_imports(tree):
    """(line, name) for each top-level import that the module neither uses
    as a name or an attribute root nor lists in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            used.update(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield node.lineno, name


def test_no_unused_imports():
    # Tests stay outside the rule: a test module may import a pytest
    # fixture by name without using it.
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []
